#!/usr/bin/env bash
# lint_seeded_smoke.sh — proves tdlint catches regressions in the real
# tree (Makefile target `lint-seeded`, part of `make ci`).
#
# Copies the working tree to a temp dir, checks that tdlint passes on
# the copy, then applies one seeded regression at a time and requires
# tdlint to exit 1 with the expected check at the expected place. The
# analyzer fixtures use their own entry-point lists, so this is the only
# check of the lists cmd/tdlint deploys. A seed whose anchor line is
# missing fails the script: update the seed together with the code it
# targets.
set -euo pipefail

cd "$(dirname "$0")/.."
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT

fail() { echo "lint-seeded: FAIL: $*" >&2; exit 1; }

echo "lint-seeded: building tdlint"
go build -o "$dir/tdlint" ./cmd/tdlint
mkdir "$dir/tree"
tar -C . --exclude=./.git -cf - . | tar -C "$dir/tree" -xf -
cd "$dir/tree"

out=$("$dir/tdlint" ./... 2>&1) || fail "tdlint fails on the unmodified tree:"$'\n'"$out"

# seed NAME FILE LINE REPLACEMENT PATTERN...: replace the one line of
# FILE equal to LINE, require tdlint to exit 1 with a finding matching
# each extended regexp PATTERN, then restore FILE.
seed() {
  local name=$1 file=$2 line=$3 repl=$4
  shift 4
  cp "$file" "$dir/orig"
  line="$line" repl="$repl" awk '
    $0 == ENVIRON["line"] { print ENVIRON["repl"]; n++; next }
    { print }
    END { exit n != 1 }' "$dir/orig" >"$file" ||
    fail "$name: want exactly one line in $file equal to: $line"
  local status=0
  out=$("$dir/tdlint" ./... 2>&1) || status=$?
  [ "$status" -eq 1 ] || fail "$name: tdlint exited $status, want 1:"$'\n'"$out"
  local re
  for re in "$@"; do
    grep -Eq "$re" <<<"$out" || fail "$name: no finding matching $re:"$'\n'"$out"
  done
  cp "$dir/orig" "$file"
  echo "lint-seeded: caught: $name"
}

seed "wall-clock RNG seed in som.Map.Train" internal/som/som.go \
  $'\trng := rand.New(rand.NewSource(m.cfg.Seed + 1))' \
  $'\trng := rand.New(rand.NewSource(time.Now().UnixNano()))' \
  '^internal/core/core\.go:[0-9]+:[0-9]+: \[seedflow\] Train ' \
  '^internal/core/core\.go:[0-9]+:[0-9]+: \[purity\] Train '

seed "plain write to telemetry.Counter.v" internal/telemetry/telemetry.go \
  'func (c *Counter) Inc() { c.Add(1) }' \
  'func (c *Counter) Inc() { c.v = atomic.Int64{}; c.Add(1) }' \
  '^internal/telemetry/telemetry\.go:[0-9]+:[0-9]+: \[atomicsafe\] plain write of atomic field telemetry\.Counter\.v '

seed "suppression naming no check of the suite" internal/registry/publish.go \
  $'\treturn man, nil' \
  $'\t//lint:ignore nosuchcheck seeded stale suppression\n\treturn man, nil' \
  '^internal/registry/publish\.go:[0-9]+:[0-9]+: \[lintdirective\] .*"nosuchcheck"'

echo "lint-seeded: ok"
