package core

import (
	"math"
	"sync/atomic"
	"testing"

	"energyclarity/internal/energy"
)

// layerTestTree builds a three-layer stack with two sibling subtrees:
//
//	root ── left  ── leafL   (root ECVs: pick, scale)
//	     └─ right ── leafR   (left/right ECVs: hot; leaf ECVs: boost)
//
// Every body touches its own ECVs and its binding, so cached results
// depend on the full assignment reaching each subtree. bodyRuns counts
// leaf-level body executions for invalidation assertions.
func layerTestTree(t testing.TB, bodyRuns *atomic.Int64) *Interface {
	t.Helper()
	leaf := func(name string, per float64) *Interface {
		return New(name).
			MustECV(BoolECV("boost", 0.5, "")).
			MustMethod(Method{Name: "cost", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
				if bodyRuns != nil {
					bodyRuns.Add(1)
				}
				j := per * c.Num(0)
				if c.ECVBool("boost") {
					j *= 3
				}
				return energy.Joules(j)
			}})
	}
	mid := func(name string, leafIface *Interface) *Interface {
		return New(name).
			MustECV(BoolECV("hot", 0.4, "")).
			MustBind("leaf", leafIface).
			MustMethod(Method{Name: "work", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
				j := c.E("leaf", "cost", Num(c.Num(0)))
				if c.ECVBool("hot") {
					j += c.E("leaf", "cost", Num(1))
				}
				return j
			}})
	}
	root := New("root").
		MustECV(BoolECV("pick", 0.5, "")).
		MustECV(NumECV("scale", []float64{1, 2, 5}, []float64{0.5, 0.3, 0.2}, "")).
		MustBind("left", mid("left", leaf("leafL", 0.25))).
		MustBind("right", mid("right", leaf("leafR", 0.75))).
		MustMethod(Method{Name: "handle", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
			s := energy.Joules(c.ECVNum("scale"))
			if c.ECVBool("pick") {
				return s * c.E("left", "work", Num(c.Num(0)))
			}
			return s * (c.E("left", "work", Num(c.Num(0))) + c.E("right", "work", Num(c.Num(0))))
		}})
	return root
}

func allModesOpts() []EvalOptions {
	fixed := map[string]Value{
		"pick": Bool(true), "scale": Num(2),
		"left.hot": Bool(false), "left.leaf.boost": Bool(true),
		"right.hot": Bool(true), "right.leaf.boost": Bool(false),
	}
	return []EvalOptions{
		Expected(),
		WorstCase(),
		BestCase(),
		FixedAssignment(fixed),
		MonteCarlo(512, 11),
	}
}

// bitIdentical fails unless a and b agree in every bit of every support
// point and probability (so −0 and +0 differ).
func bitIdentical(t *testing.T, a, b energy.Dist, what string) {
	t.Helper()
	as, bs := a.Support(), b.Support()
	ap, bp := a.Probs(), b.Probs()
	if len(as) != len(bs) {
		t.Fatalf("%s: support sizes differ: %d vs %d", what, len(as), len(bs))
	}
	for i := range as {
		if math.Float64bits(as[i]) != math.Float64bits(bs[i]) || math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
			t.Fatalf("%s: point %d differs: (%v,%v) vs (%v,%v)", what, i, as[i], ap[i], bs[i], bp[i])
		}
	}
}

// TestLayerCacheBitIdentical: for every mode and several parallelism
// levels, evaluation with a cold cache, with a warm cache, and with no
// cache at all must produce bit-identical distributions.
func TestLayerCacheBitIdentical(t *testing.T) {
	iface := layerTestTree(t, nil)
	args := []Value{Num(100)}
	for mi, base := range allModesOpts() {
		for _, par := range []int{1, 2, 0} {
			plain := base
			plain.Parallelism = par
			want, err := iface.Eval("handle", args, plain)
			if err != nil {
				t.Fatalf("mode %v par %d: uncached eval: %v", base.Mode, par, err)
			}

			lc := NewLayerCache(0)
			cached := plain
			cached.Layer = lc
			cold, err := iface.Eval("handle", args, cached)
			if err != nil {
				t.Fatalf("mode %v par %d: cold cached eval: %v", base.Mode, par, err)
			}
			warm, err := iface.Eval("handle", args, cached)
			if err != nil {
				t.Fatalf("mode %v par %d: warm cached eval: %v", base.Mode, par, err)
			}
			bitIdentical(t, cold, want, "cold vs uncached")
			bitIdentical(t, warm, want, "warm vs uncached")
			st := lc.Stats()
			if st.Hits == 0 {
				t.Fatalf("mode %v par %d: warm run recorded no layer-cache hits (stats %+v)", base.Mode, par, st)
			}
			_ = mi
		}
	}
}

// TestLayerCacheSharedAcrossModes: scalar sub-results are mode-independent
// (the mode only shapes what Eval does with the per-assignment scalars),
// so an Eval in one mode warms the cache for another.
func TestLayerCacheSharedAcrossModes(t *testing.T) {
	var runs atomic.Int64
	iface := layerTestTree(t, &runs)
	args := []Value{Num(64)}
	lc := NewLayerCache(0)

	opts := Expected()
	opts.Layer = lc
	if _, err := iface.Eval("handle", args, opts); err != nil {
		t.Fatal(err)
	}
	after := runs.Load()

	wc := WorstCase()
	wc.Layer = lc
	if _, err := iface.Eval("handle", args, wc); err != nil {
		t.Fatal(err)
	}
	if runs.Load() != after {
		t.Fatalf("worst-case eval re-ran %d leaf bodies despite a warm cache", runs.Load()-after)
	}
}

// TestLayerCacheRebindInvalidation: rebinding a leaf must invalidate the
// rebound subtree's ancestors but leave sibling-subtree entries hot.
func TestLayerCacheRebindInvalidation(t *testing.T) {
	var runs atomic.Int64
	iface := layerTestTree(t, &runs)
	args := []Value{Num(10)}
	lc := NewLayerCache(0)
	opts := Expected()
	opts.Layer = lc

	if _, err := iface.Eval("handle", args, opts); err != nil {
		t.Fatal(err)
	}
	coldRuns := runs.Load()
	if coldRuns == 0 {
		t.Fatal("cold eval ran no leaf bodies")
	}

	// Rebind the left leaf to a replacement with a different cost model.
	repl := New("leafL2").
		MustECV(BoolECV("boost", 0.5, "")).
		MustMethod(Method{Name: "cost", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
			runs.Add(1)
			j := 0.5 * c.Num(0)
			if c.ECVBool("boost") {
				j *= 2
			}
			return energy.Joules(j)
		}})
	rebound, err := iface.Rebind("left.leaf", repl)
	if err != nil {
		t.Fatal(err)
	}

	runs.Store(0)
	before := lc.Stats()
	d2, err := rebound.Eval("handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	after := lc.Stats()

	// The new left leaf must actually run (ancestor entries were keyed by
	// the old subtree versions, so root/left lookups miss) ...
	if runs.Load() == 0 {
		t.Fatal("rebound leaf never ran: stale ancestor entry served")
	}
	// ... while the untouched right subtree still hits: its descriptor
	// prefix is unchanged, so right.work/right.leaf.cost entries resolve.
	if hits := after.Hits - before.Hits; hits == 0 {
		t.Fatalf("sibling subtree recorded no hits after rebind (stats %+v)", after)
	}
	if misses := after.Misses - before.Misses; misses == 0 {
		t.Fatal("rebound subtree recorded no misses after rebind")
	}

	// The rebound result must match an uncached evaluation of the rebound
	// tree exactly.
	plain := Expected()
	want, err := rebound.Eval("handle", args, plain)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, d2, want, "rebound cached vs uncached")

	// And the original tree still evaluates to its original answer through
	// the same cache (its subtree versions are untouched by Rebind).
	origWant, err := iface.Eval("handle", args, plain)
	if err != nil {
		t.Fatal(err)
	}
	origGot, err := iface.Eval("handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, origGot, origWant, "original tree after rebind")
}

// TestLayerCacheSharedLowerLayer: two stacks bound to the *same* lower
// node share entries — the second stack's eval hits on the shared subtree
// without ever having been evaluated itself.
func TestLayerCacheSharedLowerLayer(t *testing.T) {
	var runs atomic.Int64
	shared := New("gpu").
		MustMethod(Method{Name: "kernel", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
			runs.Add(1)
			return energy.Joules(2 * c.Num(0))
		}})
	mkStack := func(name string, mul float64) *Interface {
		return New(name).
			MustBind("hw", shared).
			MustMethod(Method{Name: "run", Params: []string{"n"}, Body: func(c *Call) energy.Joules {
				return energy.Joules(mul) * c.E("hw", "kernel", Num(c.Num(0)))
			}})
	}
	a, b := mkStack("a", 1), mkStack("b", 3)
	lc := NewLayerCache(0)
	opts := Expected()
	opts.Layer = lc

	if _, err := a.Eval("run", []Value{Num(7)}, opts); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("first stack ran the shared kernel %d times, want 1", got)
	}
	if _, err := b.Eval("run", []Value{Num(7)}, opts); err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("second stack re-ran the shared kernel (total %d runs): no cross-stack sharing", got)
	}
}

// TestLayerCacheMutationInvalidates: an in-place mutation (SetECV) bumps
// the node version, so subsequent Evals bypass stale entries.
func TestLayerCacheSetECVFreshKeys(t *testing.T) {
	iface := New("svc").
		MustECV(BoolECV("hit", 0.2, "")).
		MustMethod(Method{Name: "go", Body: func(c *Call) energy.Joules {
			if c.ECVBool("hit") {
				return 1
			}
			return 10
		}})
	lc := NewLayerCache(0)
	opts := Expected()
	opts.Layer = lc
	d1, err := iface.Eval("go", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := iface.SetECV(BoolECV("hit", 0.9, "")); err != nil {
		t.Fatal(err)
	}
	d2, err := iface.Eval("go", nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Mean() == d2.Mean() {
		t.Fatalf("mean unchanged (%v) after SetECV: stale cache entries used", d1.Mean())
	}
	want, err := iface.Eval("go", nil, Expected())
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, d2, want, "post-SetECV cached vs uncached")
}
