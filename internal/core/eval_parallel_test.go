package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"energyclarity/internal/energy"
)

// parLevels are the parallelism levels every determinism test compares:
// the sequential reference path, a small pool, an odd width that does not
// divide the shard count evenly, and one worker per CPU.
func parLevels() []int {
	return []int{1, 2, 3, runtime.GOMAXPROCS(0)}
}

// TestMonteCarloBitIdenticalAcrossParallelism is the determinism
// regression: the same (method, args, seed, samples) must produce a Dist
// equal under tol=0 at every parallelism level, and across two
// consecutive runs at the same level.
func TestMonteCarloBitIdenticalAcrossParallelism(t *testing.T) {
	svc := fig1Interface(0.3, 0.8)
	img := image(1e6, 2e5)
	opts := MonteCarlo(2048, 42)
	opts.Parallelism = 1
	ref, err := svc.Eval("handle", []Value{img}, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parLevels() {
		opts.Parallelism = par
		a, err := svc.Eval("handle", []Value{img}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(ref, 0) {
			t.Errorf("parallelism %d: Dist differs from sequential reference", par)
		}
		b, err := svc.Eval("handle", []Value{img}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !b.Equal(a, 0) {
			t.Errorf("parallelism %d: two consecutive runs differ", par)
		}
	}
}

// TestMonteCarloBitIdenticalRaggedShard covers a sample count that does
// not fill the last shard.
func TestMonteCarloBitIdenticalRaggedShard(t *testing.T) {
	svc := fig1Interface(0.5, 0.5)
	img := image(1e5, 100)
	opts := MonteCarlo(mcShardSize*3+17, 7)
	opts.Parallelism = 1
	ref, err := svc.Eval("handle", []Value{img}, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Parallelism = runtime.GOMAXPROCS(0)
	got, err := svc.Eval("handle", []Value{img}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref, 0) {
		t.Error("ragged shard layout not deterministic across parallelism")
	}
}

// TestEnumerateIdenticalAcrossParallelism checks the exact-enumeration
// fan-out: partitioning the assignment index range must not change the
// resulting distribution in any mode.
func TestEnumerateIdenticalAcrossParallelism(t *testing.T) {
	svc := fig1Interface(0.3, 0.8)
	img := image(1e6, 2e5)
	for _, mode := range []Mode{ModeExpected, ModeWorstCase, ModeBestCase} {
		opts := EvalOptions{Mode: mode, Parallelism: 1}
		ref, err := svc.Eval("handle", []Value{img}, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels() {
			opts.Parallelism = par
			got, err := svc.Eval("handle", []Value{img}, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref, 0) {
				t.Errorf("mode %v parallelism %d: Dist differs", mode, par)
			}
		}
	}
}

// TestMonteCarloWorstBestParallel checks the MC-fallback worst/best-case
// reductions agree across parallelism (min/max over an identical sample
// multiset).
func TestMonteCarloWorstBestParallel(t *testing.T) {
	iface := New("many")
	for i := 0; i < 13; i++ {
		iface.MustECV(BoolECV(string(rune('a'+i)), 0.5, ""))
	}
	iface.MustMethod(Method{Name: "e", Body: func(c *Call) energy.Joules {
		total := energy.Joules(0)
		for i := 0; i < 13; i++ {
			if c.ECVBool(string(rune('a' + i))) {
				total += 1
			}
		}
		return total
	}})
	for _, mode := range []Mode{ModeWorstCase, ModeBestCase} {
		opts := EvalOptions{Mode: mode, Seed: 3, Samples: 600, Parallelism: 1}
		ref, err := iface.Eval("e", nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range parLevels() {
			opts.Parallelism = par
			got, err := iface.Eval("e", nil, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(ref, 0) {
				t.Errorf("mode %v parallelism %d: %v != %v", mode, par, got, ref)
			}
		}
	}
}

// TestEvalEnumerateSkipsZeroProbability: the parallel index decoding must
// drop zero-probability support points exactly like the recursive walk
// did, not evaluate them.
func TestEvalEnumerateSkipsZeroProbability(t *testing.T) {
	iface := New("z").
		MustECV(NumECV("lvl", []float64{1, 2, 3}, []float64{0.5, 0, 0.5}, "")).
		MustMethod(Method{Name: "e", Body: func(c *Call) energy.Joules {
			if c.ECVNum("lvl") == 2 {
				Fail(errors.New("zero-probability branch evaluated"))
			}
			return energy.Joules(c.ECVNum("lvl"))
		}})
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		d, err := iface.Eval("e", nil, EvalOptions{Mode: ModeExpected, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != 2 || d.Prob(2) != 0 {
			t.Errorf("parallelism %d: zero-probability point kept: %v", par, d)
		}
	}
}

// TestEvalErrorCancelsRemainingShards: when a worker's evalOnce fails, the
// other shards must be cancelled promptly (first-error-wins) instead of
// completing all samples. The body is deliberately impure — it fails on
// its fifth run whatever the assignment — so the test holds the engine to
// the per-sample loop (EnumLimit 1 puts the 2-point space beyond it),
// where runs count samples; TestDistinctPassFirstErrorWins is its twin for
// the tabulated path.
func TestEvalErrorCancelsRemainingShards(t *testing.T) {
	const samples = 200000
	var evals atomic.Int64
	iface := New("failing").
		MustECV(BoolECV("coin", 0.5, "")).
		MustMethod(Method{Name: "e", Body: func(c *Call) energy.Joules {
			if evals.Add(1) >= 5 {
				Fail(errors.New("boom"))
			}
			return 1
		}})
	opts := MonteCarlo(samples, 11)
	opts.EnumLimit = 1
	opts.Parallelism = 4
	_, err := iface.Eval("e", nil, opts)
	if err == nil {
		t.Fatal("expected error")
	}
	// The trigger fires on the 5th evaluation; with prompt cancellation the
	// total evaluation count stays within a few shards of that, nowhere
	// near the full sample budget.
	if n := evals.Load(); n > samples/10 {
		t.Errorf("cancellation not prompt: %d of %d samples evaluated", n, samples)
	}
}

// TestEvalErrorFirstWinsSequential: the sequential path reports the error
// immediately too.
func TestEvalErrorFirstWinsSequential(t *testing.T) {
	var evals atomic.Int64
	iface := New("failing").
		MustECV(BoolECV("coin", 0.5, "")).
		MustMethod(Method{Name: "e", Body: func(c *Call) energy.Joules {
			evals.Add(1)
			Fail(errors.New("boom"))
			return 0
		}})
	opts := MonteCarlo(10000, 1)
	opts.Parallelism = 1
	if _, err := iface.Eval("e", nil, opts); err == nil {
		t.Fatal("expected error")
	}
	if n := evals.Load(); n != 1 {
		t.Errorf("sequential path ran %d evaluations after the failure", n)
	}
}

// TestShardSeedDistinct guards the per-shard seed derivation: nearby
// (seed, shard) pairs must not collide.
func TestShardSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for seed := int64(0); seed < 8; seed++ {
		for shard := 0; shard < 64; shard++ {
			s := shardSeed(seed, shard)
			if seen[s] {
				t.Fatalf("shardSeed collision at seed=%d shard=%d", seed, shard)
			}
			seen[s] = true
		}
	}
}
