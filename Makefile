# Build / verify targets. `make verify` is the PR gate: tier-1 build+test
# plus static vetting, the repo-native lint pass (determinism, hot-path
# allocation discipline, float-comparison hygiene, must-check errors — see
# internal/lint), a race-detector pass over the concurrent engine (the sim
# worker pool, parallel sweeps, the failure plan layer, and the shared
# contraction state in partition/experiments), the statistical verification
# suite (golden regression + model invariants + deterministic replay), and
# a short fuzz smoke over the IO parser and plan compiler.

GO ?= go
FUZZTIME ?= 5s

.PHONY: all build test vet lint race verify validate update-golden fuzz-smoke loadtest-smoke crosscompile perfbench bench bench-snapshot bench-check

all: verify

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Repo-native static analysis: cmd/gicnetlint runs the determinism,
# crossdet, concheck, purecheck, hotpath, floatcmp, and errcheck analyzers
# over every package in the module — twice, because the purego build swaps
# the assembly kernel dispatch files for pure-Go variants that must satisfy
# the same contracts. Use `go run ./cmd/gicnetlint -json` for
# machine-readable diagnostics, and `-analyzers a,b` to run a subset.
lint:
	$(GO) run ./cmd/gicnetlint -root .
	$(GO) run ./cmd/gicnetlint -root . -tags purego

# The simulation engine and failure plans run concurrently (worker pools,
# parallel sweeps, shared sync.Once topology caches), and partition and
# experiments share immutable contraction state across workers — race-check
# all of them on every PR.
race:
	$(GO) test -race ./internal/sim/... ./internal/failure/... ./internal/topology/... ./internal/graph/... ./internal/partition/... ./internal/experiments/... ./internal/serve/... ./internal/crosslayer/...

verify: vet lint test race validate loadtest-smoke fuzz-smoke crosscompile perfbench

# Serving smoke: drive the example-workload mix through a fully tiered
# server and a no-tier baseline and require identical order-independent
# answer fingerprints (caching/dedup/batching change no answer), plus
# live tier traffic. See internal/serve/loadtest.
loadtest-smoke:
	$(GO) test -run '^TestSmoke$$' -count 1 ./internal/serve/loadtest

# Cross-compile gate: the bitset kernels ship three build variants (AVX2
# amd64 assembly, NEON arm64 assembly, pure-Go fallback); all of them must
# always compile, whatever machine the PR was written on.
crosscompile:
	GOARCH=amd64 $(GO) build ./...
	GOARCH=arm64 $(GO) build ./...
	$(GO) build -tags purego ./...
	$(GO) vet -tags purego ./internal/graph

# The end-to-end benchmark (perfbench/) is a nested module that the root
# `go build ./...` skips; vet and test it so an internal signature change
# that breaks it fails here rather than when the benchmark next runs.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Statistical verification: diff every reproduce output against the
# checked-in golden snapshot, check model invariants, and prove replay
# is byte-identical across worker counts (see internal/verify).
validate:
	$(GO) run ./cmd/validate

# Recapture the golden snapshot after an intended model change. Review
# the resulting diff of internal/verify/goldens/reproduce.json before
# committing it — every changed number is a deliberate output change.
update-golden:
	$(GO) run ./cmd/validate -update

# Short fuzz runs over the network-JSON parser, the failure-plan compiler,
# the core-contraction connectivity engine, and the bitset kernel
# primitives (assembly vs reference semantics); each also replays its
# checked-in seed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadNetworkJSON$$' -fuzztime $(FUZZTIME) ./internal/dataset
	$(GO) test -run '^$$' -fuzz '^FuzzPlanCompile$$' -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run '^$$' -fuzz '^FuzzTiltedSampler$$' -fuzztime $(FUZZTIME) ./internal/failure
	$(GO) test -run '^$$' -fuzz '^FuzzSobol$$' -fuzztime $(FUZZTIME) ./internal/rare
	$(GO) test -run '^$$' -fuzz '^FuzzCoreContraction$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzBitsetKernels$$' -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzCableASAdjacency$$' -fuzztime $(FUZZTIME) ./internal/crosslayer
	$(GO) test -run '^$$' -fuzz '^FuzzAnnotationComments$$' -fuzztime $(FUZZTIME) ./internal/lint

# Quick hot-path benchmarks with allocation counts.
bench:
	$(GO) test -run '^$$' -bench 'Fig6CableFailures|CountryConnectivity|AblationSimWorkers|TrialLoop|PlanCompile|SampleSparse|BitsetEvaluate|BitsetKernels|Crosslayer' -benchmem .

# Dated JSON snapshot of the full benchmark suite (see cmd/benchdiff).
bench-snapshot:
	$(GO) run ./cmd/benchdiff -bench '.' -pkg . -count 3

# Perf gate: rerun the latest BENCH_*.json snapshot's benchmark selection
# and fail if any common benchmark regressed more than 15% ns/op, or if a
# claimed speedup, variance reduction or serving ratio falls below its floor
# (the gate table in cmd/benchdiff).
bench-check:
	$(GO) run ./cmd/benchdiff -check
