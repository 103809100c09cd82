GO ?= go

.PHONY: all build vet lint lint-self lint-warm lint-baseline test race race-serve bench bench-encode bench-serve encode-smoke telemetry-smoke fuzz-smoke serve-smoke registry-smoke loadgen-smoke perfbench-check fmt-check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# tdlint is the repository's domain-specific static-analysis gate
# (DESIGN.md §7, §8, §12, §13): fifteen analyzers covering determinism,
# float-comparison hygiene, telemetry discipline, flush-error handling,
# goroutine-spawn patterns, enum exhaustiveness, cross-package purity,
# seed provenance, lock/channel discipline, and the serving layer's
# concurrency contracts (atomic access models, snapshot pin-once,
# goroutine termination, context flow). Findings subtract
# tdlint.baseline; keep it empty.
#
# The run is incremental: results are content-addressed per (package,
# analyzer) in os.UserCacheDir()/tdlint (DESIGN.md §13), so warm runs
# only re-analyze what changed. This one invocation covers what used to
# be a separate lint-self pass — the full suite runs over ./...,
# internal/analysis included, and the engine eats its own dog food.
lint:
	$(GO) run ./cmd/tdlint ./...

# Historical alias: the self-lint of the analysis engine is part of
# `lint` now that the cache makes one full-suite invocation cheap.
lint-self: lint

# Asserts the incremental cache actually bites: a warm run must report
# zero misses and be at least 5x faster than a cold one, with findings
# byte-identical cached vs. uncached and across -jobs values.
lint-warm:
	./scripts/lint_warm_smoke.sh

# Regenerate the grandfathered-findings baseline. Prefer fixing
# findings over baselining them; an empty baseline means a clean tree,
# and this target refuses to leave it otherwise. Set ALLOW_BASELINE=1
# to deliberately grandfather findings (say why in the commit message).
lint-baseline:
	$(GO) run ./cmd/tdlint -write-baseline ./...
	@if grep -v '^#' tdlint.baseline | grep -q .; then \
		if [ "$$ALLOW_BASELINE" = "1" ]; then \
			echo "lint-baseline: WARNING: baseline is non-empty (ALLOW_BASELINE=1 set)"; \
		else \
			echo "lint-baseline: baseline is non-empty; fix the findings instead, or re-run with ALLOW_BASELINE=1:"; \
			grep -v '^#' tdlint.baseline; \
			exit 1; \
		fi; \
	fi

test:
	$(GO) test -vet=all ./...

# The race detector is the backstop for the parallel evaluation engine
# (SOM batch BMU search, GP tournament evaluation, encode/machine
# caches): any unsynchronised access introduced later fails here.
race:
	$(GO) test -race ./...

# Dedicated race gate for the serving layer: the reload-under-load test
# (TestReloadUnderLoad) hammers /v1/classify from many goroutines while
# snapshots hot-swap, the registry wall proves single-flight loading and
# LRU eviction under contention (TestAcquireSingleFlightStampede,
# TestLRUEvictionOrder), and core's ClassifyDoc must stay safe under the
# same concurrency. Kept separate from `race` so the serve wall stays a
# named, required CI step even if the global race target is trimmed.
race-serve:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/core/ ./internal/registry/

# Short benchmark smoke over the evaluation-engine hot paths. Catches
# benchmarks that stop compiling or panic; not a performance gate.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(BMU|TrainEpoch|Tournament|RunSequence|ModelScore)' -benchtime 10x \
		./internal/som/ ./internal/lgp/ .

# Encode-kernel benchmarks with allocation reporting: the sparse/dense
# level-2 BMU sweep, the cold-word path (fanout table vs legacy live
# search) and full-document encoding per kernel — the numbers recorded
# in BENCH_PR6.json.
bench-encode:
	$(GO) test -run '^$$' -bench '^Benchmark(BMUSparse|WordVectorCold|EncodeDocument)' -benchmem \
		./internal/som/ ./internal/hsom/

# Encode bench smoke: fails the build if a //tdlint:hotpath encode
# kernel ever allocates. TestSparseKernelZeroAlloc and
# TestEncodeKernelsZeroAlloc assert AllocsPerRun == 0 over the sparse
# BMU sweeps (both precisions), the warm word-cache lookup and the
# sparse Gaussian evaluation (same shape as telemetry-smoke).
encode-smoke:
	$(GO) test -run 'TestSparseKernelZeroAlloc' -count=1 ./internal/som/
	$(GO) test -run 'TestEncodeKernelsZeroAlloc' -count=1 ./internal/hsom/

# Telemetry bench smoke: fails the build if the disabled telemetry path
# ever allocates. TestDisabledPathZeroAlloc asserts AllocsPerRun == 0
# over every no-op metric call, and BenchmarkDisabledNoop keeps the
# compiled no-op path exercised.
telemetry-smoke:
	$(GO) test -run 'TestDisabledPathZeroAlloc' -bench 'BenchmarkDisabledNoop' -benchtime 100x \
		./internal/telemetry/

# Short fuzz smoke over the parsing and numeric kernels: the SGML
# corpus reader, the LGP program decoder and interpreter, and the text
# normaliser. ~10s per target — enough to catch regressions in input
# handling, not a soak. Go allows one -fuzz pattern per run, hence one
# invocation per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSGML$$' -fuzztime 10s ./internal/reuters/
	$(GO) test -run '^$$' -fuzz '^FuzzParseProgram$$' -fuzztime 10s ./internal/lgp/
	$(GO) test -run '^$$' -fuzz '^FuzzMachineStep$$' -fuzztime 10s ./internal/lgp/
	$(GO) test -run '^$$' -fuzz '^FuzzProcess$$' -fuzztime 10s ./internal/textproc/
	$(GO) test -run '^$$' -fuzz '^FuzzClassifyRequest$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 10s ./internal/registry/

# End-to-end smoke of `tdc serve`: train a tiny model, boot the server
# on an ephemeral port, drive classify/healthz/modelz/reload over curl
# and assert the JSON fields scripts depend on.
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke of the model registry: train two models, `tdc
# publish` them as tenants, serve from `-models-dir`, assert per-tenant
# routing/hashes, the /v1/models catalog, immutable republish rejection,
# and that a third publish becomes visible via a /v1/reload rescan.
registry-smoke:
	./scripts/registry_smoke.sh

# Loadgen smoke: a short closed-loop soak of `tdc loadgen` against an
# in-process server (TestLoadgenSoak + the open-loop variant) asserting
# zero 5xx and client/server statz agreement on counts and percentiles.
# Also re-runs the stage-trace zero-alloc gate, since loadgen's numbers
# are only honest if tracing stays off the allocation books.
loadgen-smoke:
	$(GO) test -run 'TestLoadgen' -count=1 ./internal/loadgen/
	$(GO) test -run 'TestStageTraceZeroAllocWhenNotSampling' -count=1 ./internal/telemetry/

# The serving benchmark: boots `tdc serve`, drives it with `tdc loadgen`
# in closed and open mode and writes BENCH_PR7.json (client + server
# percentiles, throughput, shed/timeout rates, agreement verdicts).
bench-serve:
	./scripts/bench_serve.sh

# The benchmark (perfbench/, a nested module that `go test ./...` skips)
# imports serve, core, hsom, lgp and more: vet and test it against this
# tree, offline, with the settings perfbench/run.sh builds it with.
perfbench-check:
	GOFLAGS=-buildvcs=false GOPROXY=off $(GO) -C perfbench vet ./...
	GOFLAGS=-buildvcs=false GOPROXY=off $(GO) -C perfbench test ./...

# Fails when any tracked Go file is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check vet lint lint-warm build test race race-serve bench telemetry-smoke encode-smoke fuzz-smoke serve-smoke registry-smoke loadgen-smoke perfbench-check
