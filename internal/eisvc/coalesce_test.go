package eisvc

import (
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// slowIface builds a native interface whose body counts its executions and
// stalls for hold, so concurrent identical requests pile up behind one
// in-flight evaluation.
func slowIface(evalRuns *atomic.Int64, hold time.Duration) *core.Interface {
	return core.New("slow").
		MustECV(core.BoolECV("hot", 0.5, "")).
		MustMethod(core.Method{Name: "work", Params: []string{"n"}, Body: func(c *core.Call) energy.Joules {
			evalRuns.Add(1)
			time.Sleep(hold)
			j := 2 * c.Num(0)
			if c.ECVBool("hot") {
				j *= 3
			}
			return energy.Joules(j)
		}})
}

// TestEvalCoalescesConcurrentMisses: N concurrent identical memo misses
// must run exactly one underlying evaluation. The guarantee is
// deterministic, not probabilistic: a request either joins the in-flight
// singleflight, or arrives after it completed and hits the memo (the
// flight leader re-checks the memo before evaluating).
func TestEvalCoalescesConcurrentMisses(t *testing.T) {
	var evalRuns atomic.Int64
	srv, client, stop := newTestDaemon(t, Config{Workers: 4})
	defer stop()
	if _, err := srv.Registry().RegisterInterface("slow", slowIface(&evalRuns, 30*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	const n = 12
	var wg sync.WaitGroup
	dists := make([]energy.Dist, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, _, err := client.Eval("slow", "work", []core.Value{core.Num(5)}, core.Expected())
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			dists[i] = d
		}(i)
	}
	wg.Wait()

	// Exactly one Interface.Eval ran, and it runs the body once per
	// enumerated ECV assignment (2 here). A second Eval anywhere would at
	// least double the count.
	runs := evalRuns.Load()
	if runs > 2 {
		t.Fatalf("body ran %d times; want <=2 (one Eval over 2 ECV assignments)", runs)
	}
	for i := 1; i < n; i++ {
		if !dists[i].Equal(dists[0], 0) {
			t.Fatalf("request %d returned a different distribution", i)
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluations != 1 {
		t.Fatalf("daemon ran %d evaluations, want exactly 1", st.Evaluations)
	}
	if st.Coalesced+st.MemoHits != n-1 {
		t.Fatalf("coalesced %d + memo hits %d, want %d requests served without evaluating",
			st.Coalesced, st.MemoHits, n-1)
	}
}

// TestEvalCoalescingWithMemoDisabled: with NoMemo the daemon cannot serve
// late arrivals from cache, but concurrent identical requests still share
// one evaluation via singleflight.
func TestEvalCoalescingWithMemoDisabled(t *testing.T) {
	var evalRuns atomic.Int64
	srv, client, stop := newTestDaemon(t, Config{Workers: 4, NoMemo: true})
	defer stop()
	if _, err := srv.Registry().RegisterInterface("slow", slowIface(&evalRuns, 50*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	const n = 8
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, resp, err := client.Eval("slow", "work", []core.Value{core.Num(9)}, core.WorstCase())
			if err != nil {
				t.Errorf("eval: %v", err)
				return
			}
			if resp.Coalesced {
				coalesced.Add(1)
			}
		}()
	}
	wg.Wait()
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Requests that overlapped shared one evaluation. With a 50ms body and
	// all 8 fired together, at least some must have coalesced; and the
	// daemon's counter must agree with the per-response flags.
	if coalesced.Load() == 0 {
		t.Fatal("no request reported coalesced despite 8 concurrent identical misses")
	}
	if st.Coalesced != uint64(coalesced.Load()) {
		t.Fatalf("stats.Coalesced = %d, responses said %d", st.Coalesced, coalesced.Load())
	}
	if got := st.Evaluations + st.Coalesced; got != n {
		t.Fatalf("evaluations %d + coalesced %d != %d requests", st.Evaluations, st.Coalesced, n)
	}
}

// TestEvalBatch: a batch with duplicates and a bad item — duplicates are
// deduplicated, distinct items all answer, the bad item fails alone, and
// every returned distribution matches its single-request equivalent.
func TestEvalBatch(t *testing.T) {
	_, client, stop := newTestDaemon(t, Config{Workers: 2})
	defer stop()
	if _, err := client.Register(testEIL); err != nil {
		t.Fatal(err)
	}

	arg := func(pixels float64) []core.Value {
		return []core.Value{core.Record(map[string]core.Value{
			"pixels": core.Num(pixels), "zeros": core.Num(0),
		})}
	}
	reqs := []EvalRequest{
		client.EvalRequestFor("ml_webservice", "handle", arg(1024), core.Expected()),
		client.EvalRequestFor("ml_webservice", "handle", arg(2048), core.Expected()),
		client.EvalRequestFor("ml_webservice", "handle", arg(1024), core.Expected()), // dup of [0]
		{Interface: "nope", Method: "handle", Mode: "expected"},                      // unknown interface
		client.EvalRequestFor("ml_webservice", "handle", arg(1024), core.WorstCase()),
	}
	items, err := client.EvalBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(reqs) {
		t.Fatalf("%d items for %d requests", len(items), len(reqs))
	}
	for i, it := range items {
		if i == 3 {
			if it.Status != http.StatusNotFound || it.Error == "" || it.Dist != nil {
				t.Fatalf("item 3 = %+v, want a 404 error", it)
			}
			continue
		}
		if it.Error != "" || it.Dist == nil {
			t.Fatalf("item %d failed: %+v", i, it)
		}
	}
	if !items[2].Deduped {
		t.Fatal("duplicate item not marked deduped")
	}
	if items[0].Deduped || items[1].Deduped || items[4].Deduped {
		t.Fatal("distinct items marked deduped")
	}

	// Batch answers must be bit-identical to single evals.
	for _, i := range []int{0, 1, 2, 4} {
		got, err := items[i].Dist.Dist()
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Expected()
		if i == 4 {
			opts = core.WorstCase()
		}
		px := 1024.0
		if i == 1 {
			px = 2048
		}
		want, _, err := client.Eval("ml_webservice", "handle", arg(px), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("item %d differs from single eval", i)
		}
	}

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.BatchRequests != 1 || st.BatchItems != 5 {
		t.Fatalf("batch counters = %d/%d, want 1/5", st.BatchRequests, st.BatchItems)
	}
	// Three distinct valid evaluations in the batch; the dup cost nothing.
	if st.Evaluations != 3 {
		t.Fatalf("evaluations = %d, want 3", st.Evaluations)
	}
}

// TestEvalBatchCaps: oversized and empty batches are rejected whole.
func TestEvalBatchCaps(t *testing.T) {
	_, client, stop := newTestDaemon(t, Config{MaxBatch: 2})
	defer stop()
	if _, err := client.EvalBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	reqs := make([]EvalRequest, 3)
	for i := range reqs {
		reqs[i] = EvalRequest{Interface: "x", Method: "m", Mode: "expected"}
	}
	if _, err := client.EvalBatch(reqs); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

// TestWarmBatchAllocs pins the all-hit batch path as a count. 256 items
// over 64 distinct warm keys, binary, through the loopback transport
// (client encode and decode included). Measured 1,928 allocations, 7.5
// an item; the bound leaves 3% for toolchain drift. What the figure
// holds in place, each of which alone breaks it: the handler reads each
// distinct key's memo entry inline and starts no goroutine (8,896 →
// 8,763); memo keys are appended into one buffer and become a string
// once per distinct key, and both batch decoders share the interface,
// method, mode and record-key strings the items repeat (8,763 → 3,975);
// arguments are decoded straight into core.Values, a hit is answered
// with the *WireDist its memo entry holds, which also feeds the ledger
// (3,975 → 2,183), and the client decodes a batch's WireDist structs
// into one array (2,183 → 1,928). What is left per item, by profile: the
// answer's two float vectors on the client; the argument slice and the
// record's map (two allocations, in core.Record) on the server; and the
// record's sorted field names, once to encode it and once to key it.
func TestWarmBatchAllocs(t *testing.T) {
	const items, distinct, bound = 256, 64, 1990
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	c := NewClient("http://loopback")
	c.SetTransport(NewLoopbackTransport(srv))
	c.Binary = true
	reqs := make([]EvalRequest, items)
	for i := range reqs {
		arg := core.Record(map[string]core.Value{"pixels": core.Num(float64(1024 + i%distinct)), "zeros": core.Num(0)})
		reqs[i] = c.EvalRequestFor("ml_webservice", "handle", []core.Value{arg}, core.Expected())
	}
	if _, err := c.EvalBatch(reqs); err != nil { // warm every key
		t.Fatal(err)
	}
	before := srv.evaluations.Load()
	allocs := testing.AllocsPerRun(20, func() {
		got, err := c.EvalBatch(reqs)
		if err != nil || len(got) != items || !got[items-1].Cached {
			t.Fatalf("warm batch: %d items, err %v", len(got), err)
		}
	})
	if srv.evaluations.Load() != before {
		t.Fatal("warm batch evaluated")
	}
	t.Logf("warm %d-item batch over %d keys: %.0f allocs", items, distinct, allocs)
	if allocs > bound && !raceEnabled {
		t.Errorf("warm batch made %.0f allocations, want <= %d", allocs, bound)
	}
}

// hybridLayerEIL is ml_webservice with its accelerator binding resolved
// against a Go-native interface seeded in the server registry. The native
// bodies have no EIL source to inline, so the optimizing compiler declines
// handle and the daemon's interpreter evaluates it with the layer cache
// attached — the tree shape the layer now serves. (A pure-EIL stack like
// testEIL compiles to a flat program and never touches the layer; see
// internal/opt and the EvalOptions.Layer docs.)
const hybridLayerEIL = `
interface ml_hybrid {
  ecv request_hit: bernoulli(0.3)
  ecv local_cache_hit: bernoulli(0.8)
  uses accel: accel_native
  func handle(request) {
    if request_hit {
      if local_cache_hit { return 5mJ * 1024 }
      return 100mJ * 1024
    }
    return 8 * accel.conv2d(request.pixels - request.zeros) + 16 * accel.mlp(256)
  }
}
`

// nativeAccel prices conv2d/mlp like testEIL's accel_hw, but with Go
// bodies, which makes any EIL caller uncompilable (and thus interpreted).
func nativeAccel() *core.Interface {
	return core.New("accel_native").
		MustMethod(core.Method{Name: "conv2d", Params: []string{"n"}, Body: func(c *core.Call) energy.Joules {
			return energy.Joules(4e-6 * c.Num(0))
		}}).
		MustMethod(core.Method{Name: "mlp", Params: []string{"n"}, Body: func(c *core.Call) energy.Joules {
			return energy.Joules(1e-5 * c.Num(0))
		}})
}

// TestDaemonLayerStats: evaluating an interpreted layered stack twice with
// different args still hits the layer cache (shared lower-layer
// sub-evaluations), and /v1/stats reports it.
func TestDaemonLayerStats(t *testing.T) {
	srv, client, stop := newTestDaemon(t, Config{})
	defer stop()
	if _, err := srv.Registry().RegisterInterface("accel_native", nativeAccel()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Register(hybridLayerEIL); err != nil {
		t.Fatal(err)
	}
	arg := func(pixels float64) []core.Value {
		return []core.Value{core.Record(map[string]core.Value{
			"pixels": core.Num(pixels), "zeros": core.Num(0),
		})}
	}
	if _, _, err := client.Eval("ml_hybrid", "handle", arg(512), core.Expected()); err != nil {
		t.Fatal(err)
	}
	// Different argument → memo miss, but the mlp(256) sub-call repeats.
	if _, _, err := client.Eval("ml_hybrid", "handle", arg(768), core.Expected()); err != nil {
		t.Fatal(err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.LayerEnabled {
		t.Fatal("layer cache reported disabled")
	}
	if st.LayerHits == 0 {
		t.Fatalf("no layer hits across two evaluations sharing sub-calls (stats %+v)", st)
	}
	if st.LayerLen == 0 {
		t.Fatal("layer cache empty after evaluations")
	}

	// Rebinding must bump the invalidation counter.
	if _, err := client.Register(altHW); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Rebind("ml_hybrid", "accel", "accel_hw_v2"); err != nil {
		t.Fatal(err)
	}
	st2, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st2.LayerInvalidations <= st.LayerInvalidations {
		t.Fatalf("invalidations %d -> %d, want an increase after rebind",
			st.LayerInvalidations, st2.LayerInvalidations)
	}
}
