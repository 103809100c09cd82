GO ?= go

.PHONY: all build vet lint lint-seeded test recorded-nofma race race-serve bench bench-encode encode-smoke telemetry-smoke fuzz-smoke serve-smoke registry-smoke perfbench-check fmt-check ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# tdlint is the repository's domain-specific static-analysis gate
# (DESIGN.md §7–8): nine analyzers guarding bit-deterministic training
# (determinism, purity, seedflow), float-comparison hygiene, telemetry
# discipline, flush-error handling, enum exhaustiveness, allocation-free
# hot paths and atomic field access. One sequential, uncached run over
# ./..., internal/analysis included. Every finding fails the run; the
# one escape hatch is an in-source //lint:ignore <check> <reason>.
lint:
	$(GO) run ./cmd/tdlint ./...

# Proves the suite catches regressions in the real tree, not just in its
# fixtures: on a copy of the tree, seeds a wall-clock RNG seed in
# som.Map.Train, a plain write to an atomic telemetry field and a stale
# suppression, one at a time, and requires tdlint to fail on each with
# the expected check — the only check of cmd/tdlint's entry-point lists.
lint-seeded:
	./scripts/lint_seeded_smoke.sh

test:
	$(GO) test -vet=all ./...

# The recorded-bits walls pin trained bytes to digests, one set per
# math.Exp code path on amd64: with FMA, which `test` runs on CPUs that
# have it, and without, which this target forces with
# GODEBUG=cpu.fma=off. TestPathFollowsGODEBUG fails if the setting stops
# selecting the path without FMA.
recorded-nofma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 -run '^(TestTrainRecordedBits|TestSmokeSnapshotsRecorded|TestRunRecordedBits|TestPathFollowsGODEBUG)$$' \
		./internal/som/ ./internal/core/ ./internal/lgp/ ./internal/exppath/

# The race detector is the backstop for the parallel evaluation engine
# (concurrent category word-map training, GP tournament evaluation,
# encode/machine caches): any unsynchronised access introduced later
# fails here.
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

# Short benchmark smoke over the evaluation-engine hot paths and the
# concurrent encoder fit (hsom BenchmarkTrain). Catches benchmarks that
# stop compiling or panic; not a performance gate.
bench:
	$(GO) test -run '^$$' -bench '^Benchmark(BMU|Train|Tournament|RunSequence|ModelScore)' -benchtime 10x \
		./internal/som/ ./internal/hsom/ ./internal/lgp/ .

# Encode-kernel benchmarks with allocation reporting: the sparse/dense
# level-2 BMU sweep, the cold-word path (fanout table vs legacy live
# search) and full-document encoding through Encode and the dense
# reference — the numbers recorded in BENCH_PR6.json.
bench-encode:
	$(GO) test -run '^$$' -bench '^Benchmark(BMUSparse|WordVectorCold|EncodeDocument)' -benchmem \
		./internal/som/ ./internal/hsom/

# Encode bench smoke: fails the build if a //tdlint:hotpath encode
# kernel ever allocates. TestSparseKernelZeroAlloc and
# TestEncodeKernelsZeroAlloc assert AllocsPerRun == 0 over the sparse
# BMU sweep, the warm word-cache lookup and the sparse Gaussian
# evaluation (same shape as telemetry-smoke).
encode-smoke:
	$(GO) test -run 'TestSparseKernelZeroAlloc' -count=1 ./internal/som/
	$(GO) test -run 'TestEncodeKernelsZeroAlloc' -count=1 ./internal/hsom/

# Telemetry bench smoke: fails the build if the disabled telemetry path
# ever allocates. TestDisabledPathZeroAlloc asserts AllocsPerRun == 0
# over every no-op metric call, TestStageTraceZeroAllocWhenNotSampling
# does the same for an unsampled request's stage trace (serving latency
# is only honest if tracing stays off the allocation books), and
# BenchmarkDisabledNoop keeps the compiled no-op path exercised.
telemetry-smoke:
	$(GO) test -run 'TestDisabledPathZeroAlloc|TestStageTraceZeroAllocWhenNotSampling' -bench 'BenchmarkDisabledNoop' -benchtime 100x \
		./internal/telemetry/

# Short fuzz smoke over the parsing and numeric kernels: the SGML
# corpus reader, the LGP program decoder and interpreter, the text
# normaliser, the classify request decoder, the registry manifest and
# the model snapshot loader. ~10s per target — enough to catch
# regressions in input handling, not a soak. Go allows one -fuzz
# pattern per run, hence one invocation per target.
# Every line caps minimisation at 200 runs per input. By default Go
# spends up to 60 s minimising each input that finds new coverage and
# mutates nothing meanwhile, so on a cold fuzz cache one minimisation
# can eat a target's whole 10 s:
#   FuzzLoad             4 KB snapshot seeds: stalls in its first second
#   FuzzParseSGML        whole SGML documents: sits at 0 execs/s
#   FuzzClassifyRequest  JSON request bodies: sits at 0 execs/s
#   FuzzParseProgram, FuzzProcess, FuzzManifest
#                        string inputs: slow to a fraction of their
#                        rate as minimisation takes over
#   FuzzMachineStep      fixed-size inputs minimise at once (no stall
#                        seen); capped so that every line is alike
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseSGML$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/reuters/
	$(GO) test -run '^$$' -fuzz '^FuzzParseProgram$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/lgp/
	$(GO) test -run '^$$' -fuzz '^FuzzMachineStep$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/lgp/
	$(GO) test -run '^$$' -fuzz '^FuzzProcess$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/textproc/
	$(GO) test -run '^$$' -fuzz '^FuzzClassifyRequest$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/serve/
	$(GO) test -run '^$$' -fuzz '^FuzzManifest$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/registry/
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 10s -fuzzminimizetime 200x ./internal/core/

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

ci: fmt-check vet lint lint-seeded build test recorded-nofma race race-serve bench telemetry-smoke encode-smoke fuzz-smoke serve-smoke registry-smoke perfbench-check
