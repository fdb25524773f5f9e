# Stdlib-only Go repo; these targets are the whole verification surface.

GO ?= go

.PHONY: build test race test-repeat fuzz-smoke bench bench-smoke bench-test vet fmt-check loc all

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The nested bench module too, so an API change bench/ depends on fails
# here as well as in bench-test.
vet:
	$(GO) vet ./...
	cd bench && GOTOOLCHAIN=local GOWORK=off $(GO) vet ./...

# The deletion ledger's measurement (ROADMAP aim 2): `cat | wc -l` of
# non-test and test Go per internal/ package, the ledger's two package
# groups (eisvc + fleet, core + opt + energy), cmd/, and the whole tree,
# bench/ excluded.
loc:
	@count() { if [ -n "$$1" ]; then cat $$1 | wc -l; else echo 0; fi; }; \
	printf '%-24s %8s %8s\n' package non-test test; \
	for d in internal/*/; do \
		printf '%-24s %8d %8d\n' "$${d%/}" \
			"$$(count "$$(find $$d -name '*.go' ! -name '*_test.go')")" \
			"$$(count "$$(find $$d -name '*_test.go')")"; \
	done; \
	for pair in 'eisvc+fleet:eisvc fleet' 'core+opt+energy:core opt energy'; do \
		dirs=""; for p in $${pair#*:}; do dirs="$$dirs internal/$$p"; done; \
		printf '%-24s %8d %8d\n' "internal/$${pair%%:*}" \
			"$$(count "$$(find $$dirs -name '*.go' ! -name '*_test.go')")" \
			"$$(count "$$(find $$dirs -name '*_test.go')")"; \
	done; \
	printf '%-24s %8d %8d\n' 'cmd' \
		"$$(count "$$(find cmd -name '*.go' ! -name '*_test.go')")" \
		"$$(count "$$(find cmd -name '*_test.go')")"; \
	printf '%-24s %8d %8d\n' 'total (bench/ excluded)' \
		"$$(count "$$(find . -path ./bench -prune -o -name '*.go' ! -name '*_test.go' -print)")" \
		"$$(count "$$(find . -path ./bench -prune -o -name '*_test.go' -print)")"

# gofmt takes no exit code for diffs; fail if it would rewrite anything.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The evaluation engine and experiment sweeps fan out across goroutines;
# run the full suite under the race detector before merging anything that
# touches them.
race:
	$(GO) test -race ./...

# The tests that have flaked before, repeated: E11-E17, six subtests of
# TestExperiments (a stopwatch assertion creeping back in fails one run in
# a few, not every run; E16 runs at its one, full size), E11, E12, E13
# and E17 three times more and E16 once more at GOMAXPROCS=1, where a
# count that races the host fails (E11's overload burst did, until it was
# held at a gate; E16 takes 13 s at one CPU on a 2 vCPU Xeon, now that
# its clients speak binary), the fleet package (probe
# ordering, kill and partition
# traces, TestHopAllocs: the exact allocations of one warm hop, direct
# and routed, and of a unique-argument direct eval, and TestRoutedBatchAllocs: those of one routed 256-item
# batch whose new keys every peer's summary rules out, and
# TestRoutedBatchRetainsNothing: a heap that 400 routed batches must not
# grow by more than their new keys), and the eisvc
# tests that depend on the runtime's mood —
# exact allocation counts (a warm batch, every frame kind, a batch's
# arguments at 64 and 256 items), a heap that 400 batches must not grow
# by more than their cold keys (TestBatchRetainsOnlyColdKeys), 32
# responses encoding from one shared memo entry at once, a cold batch
# that must not shed its own items, a cancellation raced against a hedge —
# plus the frame and answer pins, the cache package (TestStorePutAllocs: a full
# store's insert allocates nothing), the allocations of a cold evaluation
# (worst and best cases among its shapes) and of a warm 4,096-sample Monte
# Carlo evaluation of both mc_sample shapes, sequential and parallel (1:
# the answer, TestMonteCarloAllocsPerSample),
# and the tests that run eid and efleet as child processes (ports, signals
# and snapshot files are where process flakes live). A flake shows up
# here as a red step, not as one red run in six. The byte pins run once
# more with the GC off from the process's start: the two counted batch
# tests, which count each batch's allocations and bytes allocated
# (runtime.MemStats.TotalAlloc) with the GC off in any case, so their
# counts are exact or within one (a warm batch whose repeats cross as
# refs and whose distinct items come back held, and a routed batch with
# no refs whose warm items come back held; each also sent from a client
# that holds nothing, answered in full), TestHopAllocs' rows (one warm
# binary eval direct and routed, whose answer names the client decodes
# without a copy; a unique-argument direct eval on a one-node fleet; and
# one on a 2-node fleet whose peer's summary rules the key out, so the
# peer lookup returns before allocating), the bytes a client
# allocates to send a 20 KB body through NewTransport (no copy buffer), and
# the Monte Carlo evaluation's one allocation, which a GC emptying the
# pools it runs on mid-count would raise.
test-repeat:
	$(GO) test -count=10 -run 'TestExperiments/^E1[1-7]$$' ./internal/experiments
	GOMAXPROCS=1 $(GO) test -count=3 -run 'TestExperiments/^(E11|E12|E13|E17)$$' ./internal/experiments
	GOMAXPROCS=1 $(GO) test -count=1 -run 'TestExperiments/^E16$$' ./internal/experiments
	$(GO) test -count=5 ./internal/fleet
	$(GO) test -count=5 -run 'TestWarmBatchAllocs|TestBatchArgsDecodeOnce|TestBatchRetainsOnlyColdKeys|TestMemoSharesWireForm|TestFrameAllocs|TestFramesUnchanged|TestAnswersUnchanged|TestBatchDoesNotShedItself|TestClientContextError' ./internal/eisvc
	GOGC=off $(GO) test -count=3 -run 'TestWarmBatchAllocs|TestRoutedBatchAllocs|TestHopAllocs|TestTransportCopiesNoBody|TestMonteCarloAllocsPerSample' . ./internal/eisvc ./internal/fleet
	$(GO) test -count=5 ./internal/cache
	$(GO) test -count=5 -run 'TestColdEvalAllocs|TestMonteCarloAllocsPerSample' .
	$(GO) test -count=3 -run 'Process|Recal' ./cmd/eid ./cmd/efleet

# `go test` only replays a fuzz target's seed corpus; this gives each one
# ten seconds of actual fuzzing (one target and one package per run, as
# -fuzz requires). A crasher lands in the package's testdata/fuzz/ —
# commit it: it is the regression seed every later `go test` replays.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzCodecRoundTrip$$' -fuzztime=10s ./internal/eisvc
	$(GO) test -run '^$$' -fuzz '^FuzzFrameWalk$$' -fuzztime=10s ./internal/eisvc
	$(GO) test -run '^$$' -fuzz '^FuzzMemoKey$$' -fuzztime=10s ./internal/eisvc
	$(GO) test -run '^$$' -fuzz '^FuzzRegistrySnapshot$$' -fuzztime=10s ./internal/eisvc
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/eil
	$(GO) test -run '^$$' -fuzz '^FuzzLex$$' -fuzztime=10s ./internal/eil
	$(GO) test -run '^$$' -fuzz '^FuzzCompileDifferential$$' -fuzztime=10s ./internal/opt
	$(GO) test -run '^$$' -fuzz '^FuzzBounds$$' -fuzztime=10s ./internal/energy

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of each root microbenchmark, so none of them rots: the
# parallel sampler (samples/sec at parallelism 1/4/max) and E15's
# compiled and interpreted GPT-2 stack (cold, warm and unique per mode).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkEvalParallel|BenchmarkEvalCompiled|BenchmarkEvalInterpreted' -benchtime=1x .

# The serving benchmark (bench/, BENCHMARK.json) is a nested module, so
# `go test ./...` at the root neither builds nor tests it; this does. The
# same environment as bench/run.sh keeps it off the network and out of any
# enclosing workspace.
bench-test:
	cd bench && GOTOOLCHAIN=local GOWORK=off $(GO) test ./...
