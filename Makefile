# Stdlib-only Go repo; these targets are the whole verification surface.

GO ?= go

.PHONY: build test race bench bench-smoke bench-json bench-test vet fmt-check serve-smoke fault-smoke drift-smoke compile-smoke fleet-smoke wire-smoke sched-smoke autoopt-smoke all

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# gofmt takes no exit code for diffs; fail if it would rewrite anything.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The evaluation engine, experiment sweeps, and calibration all fan out
# across goroutines; run the full suite under the race detector before
# merging anything that touches them.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration smoke of the parallel-evaluation benchmark family: checks
# the benchmarks still run and prints samples/sec at parallelism 1/4/max.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEvalParallel' -benchtime=1x .

# Machine-readable numbers for the evaluation/serving path: run the
# engine and daemon benchmarks a few iterations each and convert the
# output to BENCH_eval.json via cmd/benchjson (-benchmem: it lifts B/op
# and allocs/op into the metrics, so allocation claims have a number).
# Short -benchtime keeps the target cheap enough for CI; it tracks trends,
# not microseconds.
bench-json:
	$(GO) test -run '^$$' \
		-bench 'BenchmarkEvalParallel$$|BenchmarkDaemonEval$$|BenchmarkEvalLayerCache$$|BenchmarkDaemonBatch$$|BenchmarkDriftDetect$$|BenchmarkRecalibrate$$|BenchmarkEvalCompiled$$|BenchmarkEvalInterpreted$$|BenchmarkFleetEval$$|BenchmarkFleetBatch$$|BenchmarkWireCodec$$|BenchmarkMemoHitBinary$$|BenchmarkWarmRestart$$|BenchmarkSchedRound$$|BenchmarkSchedPlacementBatch$$|BenchmarkOptimizeSweep$$' \
		-benchtime=3x -benchmem . > .bench_eval.out
	$(GO) run ./cmd/benchjson -o BENCH_eval.json < .bench_eval.out
	@rm -f .bench_eval.out
	@echo "wrote BENCH_eval.json"

# The serving benchmark (bench/, BENCHMARK.json) is a nested module, so
# `go test ./...` at the root neither builds nor tests it; this does. The
# same environment as bench/run.sh keeps it off the network and out of any
# enclosing workspace.
bench-test:
	cd bench && GOTOOLCHAIN=local GOWORK=off $(GO) test ./...

# End-to-end daemon self-test: eid serves on a loopback port, registers
# the Fig. 1 mlservice interface over the wire, queries it (the repeat
# must be a memo hit), and asserts 200s throughout. See docs/EID.md.
serve-smoke:
	$(GO) run ./cmd/eid -smoke

# Short-mode run of the E13 resilience experiment: a retrying/hedging
# client fleet sustains a Zipf trace through injected faults (resets,
# hangs, 503 bursts) with every delivered answer bit-identical to the
# fault-free reference, a cancelled evaluation frees its worker, and a
# draining daemon sheds politely while in-flight work completes.
fault-smoke:
	$(GO) test -run 'TestE13ResilienceShape' -short -count=1 ./internal/experiments/

# Smoke of the EIL→bytecode optimizing compiler (internal/opt): the
# differential suite proves compiled evaluation bit-identical to the
# interpreter across all five modes (random programs included), and eid
# -smoke asserts wire-served pure-EIL interfaces run compiled while
# native-bound trees still fall back — counters surface in /v1/stats.
compile-smoke:
	$(GO) test -run 'TestGPT2StackCompilesBitIdentical|TestRandomProgramsBitIdentity|TestRebindInvalidatesPrograms' -count=1 ./internal/opt/
	$(GO) run ./cmd/eid -smoke

# Short-mode run of the E14 continuous-calibration experiment under the
# race detector: programmed aging on the hidden silicon must be detected
# within the bounded sample count (zero false positives on the pristine
# control replica), and the automated recalibration must restore
# sub-percent prediction error through a version-bumping install that
# keeps layer caches bit-exact. See docs/DRIFT.md.
drift-smoke:
	$(GO) test -race -run 'TestE14DriftShape' -short -count=1 ./internal/experiments/

# Fleet self-test: a 3-node in-process cluster (internal/fleet) serves a
# retrying Zipf trace through the consistent-hashing router while a
# replica owner is killed a third of the way in — every request must be
# answered, bit-identical to the pre-kill reference (the race-mode test),
# and efleet -smoke repeats the drill end to end over real loopback HTTP.
# See docs/FLEET.md.
fleet-smoke:
	$(GO) test -race -run 'TestFleetKillMidTraceSmoke' -count=1 ./internal/fleet/
	$(GO) run ./cmd/efleet -smoke

# Wire-protocol smoke: the codec fuzz corpus and interop test prove JSON
# and binary clients get bit-identical answers through every handler, the
# snapshot corruption tests prove a damaged or version-skewed snapshot
# file produces a clean cold start (never garbage), and the short E17 run
# drives the full path — binary memo hits over TCP and loopback, then a
# fleet node killed and restarted from its snapshot serving the warm
# trace with zero re-evaluations. See DESIGN.md §13.
wire-smoke:
	$(GO) test -run 'TestWireSmokeInterop|FuzzCodecRoundTrip|TestSnapshot' -count=1 ./internal/eisvc/
	$(GO) test -run 'TestE17WireShape' -short -count=1 ./internal/experiments/

# Scheduler smoke: the short E18 run under the race detector — a full
# scheduling comparison against a live fleet router where the
# interface-driven policy must beat the utilization baseline on energy at
# equal-or-better QoS, the carbon-aware variant must cut emissions
# further, and repeat runs must be bit-identical — plus the sched
# determinism regression tests (placement ties, error propagation,
# E2 golden numbers). See docs/SCHED.md.
sched-smoke:
	$(GO) test -race -run 'TestE18SchedShape' -short -count=1 ./internal/experiments/
	$(GO) test -race -count=1 ./internal/schedsvc/
	$(GO) test -race -run 'TestChoosePlacementDeterministicUnderTies|TestRunGoldenE2|TestInfeasibleFallbackAvoidsWorstNode' -count=1 ./internal/sched/

# Auto-optimizer smoke under the race detector: the Pareto engine's unit
# suite and the MoE fixture, the served-sweep tests (frontier digest
# pinned bit-identical across parallelism 1/2/8 and across JSON vs
# binary), the fleet drill that kills a sweep's serving node mid-flight
# and still demands a bit-identical frontier, the short E19 run (>= 20%
# savings under the SLO, repeat sweep >= 90% memo-served), and the eid
# -optimize loopback drill with its /v1/stats counter checks. See
# docs/AUTOOPT.md.
autoopt-smoke:
	$(GO) test -race -count=1 ./internal/autoopt/ ./internal/nn/
	$(GO) test -race -run 'TestOptimize|TestCodecOptimize' -count=1 ./internal/eisvc/
	$(GO) test -race -run 'TestFleetOptimizeKillMidSweep' -count=1 ./internal/fleet/
	$(GO) test -race -run 'TestE19AutooptShape' -short -count=1 ./internal/experiments/
	$(GO) run ./cmd/eid -optimize
