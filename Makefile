# Stdlib-only Go repo; these targets are the whole verification surface.

GO ?= go

.PHONY: build test race test-repeat fuzz-smoke bench bench-smoke bench-json bench-test vet fmt-check smoke all

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

# The tests that have flaked before, repeated: the E12-E17 shape tests
# (a stopwatch assertion creeping back in fails one run in a few, not
# every run), the fleet package (probe ordering, kill and partition
# traces), and the two eisvc tests that depend on the runtime's mood — an
# exact allocation count, and 32 responses encoding from one shared memo
# entry at once. A flake shows up here as a red step, not as one red run
# in six.
test-repeat:
	$(GO) test -count=10 -run 'TestE1[2-7]' ./internal/experiments
	$(GO) test -count=5 ./internal/fleet
	$(GO) test -count=5 -run 'TestWarmBatchAllocs|TestMemoSharesWireForm' ./internal/eisvc

# `go test` only replays a fuzz target's seed corpus; this gives each one
# ten seconds of actual fuzzing (one target and one package per run, as
# -fuzz requires). A crasher lands in the package's testdata/fuzz/ —
# commit it: it is the regression seed every later `go test` replays.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime=10s ./internal/eisvc
	$(GO) test -run '^$$' -fuzz '^FuzzFrameWalk$$' -fuzztime=10s ./internal/eisvc
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/eil
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime=10s ./internal/eil
	$(GO) test -run '^$$' -fuzz '^FuzzCompileDifferential$$' -fuzztime=10s ./internal/opt

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

# The one thing `make race` does not do: run the real binaries as
# processes. eid -smoke -recal serves on a loopback port, registers the
# Fig. 1 interface over the wire, checks memo hits, the compiled and
# fallback counters, JSON/binary interop, and a full age -> detect ->
# recalibrate cycle; eid -optimize sweeps a knob space over the binary
# wire and checks the /v1/stats accounting; efleet -smoke kills a replica
# owner mid-trace behind the router and demands every answer, bit-identical.
# Everything the old per-feature smoke targets wrapped in `go test -run`
# is a test `make race` already runs in full (docs name each one).
smoke:
	$(GO) run ./cmd/eid -smoke -recal
	$(GO) run ./cmd/eid -optimize
	$(GO) run ./cmd/efleet -smoke
