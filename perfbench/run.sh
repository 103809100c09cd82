#!/usr/bin/env bash
# Builds the benchmark and the tdc binary from the checkout it is run in,
# then runs one workload; run it from the checkout's root:
#
#   bash perfbench/run.sh --workload serve-unique --seed 1 --seconds 15 --trace 0
#
# "--workload all" runs every workload in perfbench/workloads in turn.
# Everything built or written goes under .bench_build/ in the checkout,
# the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tdc || ! -f perfbench/go.mod ]]; then
	echo "run.sh: run from the root of a temporaldoc checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/bin/tdc" ./cmd/tdc
go build -C perfbench -o "$out/bin/perfbench" .

args=("$@")
for i in "${!args[@]}"; do
	if [[ ${args[$i]} == --workload && ${args[$((i + 1))]:-} == all ]]; then
		status=0
		for spec in perfbench/workloads/*.json; do
			args[$((i + 1))]=$(basename "$spec" .json)
			"$out/bin/perfbench" --tdc "$out/bin/tdc" "${args[@]}" || status=1
		done
		exit "$status"
	fi
done
exec "$out/bin/perfbench" --tdc "$out/bin/tdc" "$@"
