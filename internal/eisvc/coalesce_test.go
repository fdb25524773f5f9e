package eisvc

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
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
			d, _, err := client.EvalCtx(context.Background(), "slow", "work", []core.Value{core.Num(5)}, core.Expected())
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
	st, err := client.StatsCtx(context.Background())
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
			_, resp, err := client.EvalCtx(context.Background(), "slow", "work", []core.Value{core.Num(9)}, core.WorstCase())
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
	st, err := client.StatsCtx(context.Background())
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
	if _, err := client.RegisterCtx(context.Background(), testEIL); err != nil {
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
	items, err := client.EvalBatchCtx(context.Background(), reqs)
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
		want, _, err := client.EvalCtx(context.Background(), "ml_webservice", "handle", arg(px), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want, 0) {
			t.Fatalf("item %d differs from single eval", i)
		}
	}

	st, err := client.StatsCtx(context.Background())
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

// TestEvalBatchCaps: an empty batch is refused, and so is a frame of more
// than maxBatch items, in either codec: the node's 400. A client never
// sends one (TestEvalBatchSplitsFrames), so that frame goes raw.
func TestEvalBatchCaps(t *testing.T) {
	_, client, stop := newTestDaemon(t, Config{})
	defer stop()
	if _, err := client.EvalBatchCtx(context.Background(), nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	req := &BatchEvalRequest{Requests: make([]EvalRequest, maxBatch+1)}
	for i := range req.Requests {
		req.Requests[i] = EvalRequest{Interface: "x", Method: "m", Mode: "expected"}
	}
	js, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for ctype, body := range map[string][]byte{jsonContentType: js, BinaryContentType: binaryFrame(&EvalBatchEndpoint.Request, req)} {
		resp, err := http.Post(client.Base()+EvalBatchEndpoint.Path, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: a frame of %d items answered %d, want 400", ctype, len(req.Requests), resp.StatusCode)
		}
	}
}

// TestBatchDoesNotShedItself: on an idle node, one batch with more cold
// keys than the admission queue holds answers every item. Its keys queue
// for worker slots no more of them at a time than there are workers, so
// the batch cannot fill the queue it is bounded by. (One goroutine per key
// answered 74 of 300 items here and shed the rest with 429.)
func TestBatchDoesNotShedItself(t *testing.T) {
	const items = 300
	var evalRuns atomic.Int64
	srv, client, stop := newTestDaemon(t, Config{Workers: 2}) // QueueLimit: the default 64
	defer stop()
	if _, err := srv.Registry().RegisterInterface("slow", slowIface(&evalRuns, 200*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	reqs := make([]EvalRequest, items)
	for i := range reqs {
		reqs[i] = client.EvalRequestFor("slow", "work", []core.Value{core.Num(float64(i))}, core.Expected())
	}
	got, err := client.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for _, it := range got {
		if it.Status == http.StatusOK {
			answered++
		}
	}
	adm := srv.adm.read()
	queueFull, deadline := adm.ShedQueueFull, adm.ShedDeadline
	if answered != items || queueFull != 0 || deadline != 0 {
		t.Errorf("%d of %d items answered, %d shed on a full queue, %d on the deadline; want every item answered",
			answered, items, queueFull, deadline)
	}
	if n := atomic.LoadUint64(&srv.counts.Evaluations); n != items {
		t.Errorf("%d evaluations, want %d", n, items)
	}
}

// countPerRun is testing.AllocsPerRun that counts bytes too, with the GC
// off: the mean allocations and bytes (runtime.MemStats.TotalAlloc) of runs
// calls of f after one warm-up call. No pool is emptied mid-count, so both
// figures are exact.
func countPerRun(runs int, f func()) (allocs, bytes float64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWarmBatchAllocs pins the all-hit batch path as a count, of
// allocations and of bytes, with the GC off (countPerRun). 256 items over
// 64 distinct warm keys, binary, through the loopback transport (client
// encode and decode included). Measured 39 allocations, 0.15 an item, and
// 104,048 bytes; the bounds leave 3%, and one allocation for toolchain
// drift.
// What the figure holds in place, each of which alone breaks it: the
// handler reads each distinct key's memo entry inline and starts no
// goroutine (8,896 →
// 8,763); memo keys are appended into one buffer and become a string
// once per distinct key, and both batch decoders share the interface,
// method, mode and record-key strings the items repeat (8,763 → 3,975);
// arguments are decoded straight into core.Values, a hit is answered
// with the *WireDist its memo entry holds, which also feeds the ledger
// (3,975 → 2,183); the client decodes a batch's WireDist structs into
// one array (2,183 → 1,928); and the record's sorted field names, once to
// encode it and once to key it, are listed on the stack, while the client
// decodes an answer's two vectors into one allocation (1,928 → 1,158;
// 1,145 by the time hops were built once); and the node decodes every
// item's arguments into one array and makes one string of its distinct
// memo keys (1,145 → 827); and the 192 items that repeat an earlier one
// cross as refs both ways, so the node neither decodes nor keys them and
// the client decodes no answer for them (827 → 249); and the 64 distinct
// items go held, so the node sends and the client decodes no vectors for
// them: the client answers them with the *WireDist it holds (249 → 189;
// 190 since an answer with held items keeps its frame's refs, one slice,
// for the client to resolve a ref to a held item); and the node keys each
// distinct item off its bytes, answering it from the memo without
// decoding it — the record's map, two allocations an item, was most of
// what was left (190 → 52); and the client encodes its request into a
// pooled buffer and sends one exactly sized copy, where the frame used to
// grow by doubling (52 → 44; 43 with the GC off, which every figure from
// here on is); and the node finds its duplicate keys in a pooled map and
// keeps per distinct key only its key's range, first item and outcome,
// while the client keeps a WireDist slot only for an answer that carries
// a distribution — none, here (43 → 39, 181,784 → 104,048 bytes). Nothing
// is left per distinct item. Then the node came to lay its answer frame
// out item by item from its key results, with no answer item array, its
// per-item and per-key arrays pooled, and the client to pool a batch's
// holds (39 → 31, 104,048 → 47,830 bytes, every one of 30 runs).
//
// The test then counts the full-answer path too, which JSON clients and
// the first warm repeat of each item still take: the same batch from a
// client whose held answers are dropped before each run. It measured 380:
// the 249 of the path before held answers, plus two allocations for each
// of the 64 answers the client then holds (its heldAnswer and the item's
// bytes), plus 3; then 233, by the same two cuts as the held path, and
// 230 (203,416 → 132,208 bytes) by the last, then 223 (77,936–77,938
// bytes, 30 runs) by the same cuts as the held path. The bounds are 3%
// over the highest of 30 runs.
func TestWarmBatchAllocs(t *testing.T) {
	const items, distinct, bound, fullBound = 256, 64, 32, 230
	const byteBound, fullByteBound = 49_300, 80_300
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	c := NewClient("http://loopback")
	c.SetTransport(NewLoopbackTransport(srv))
	reqs := make([]EvalRequest, items)
	for i := range reqs {
		arg := core.Record(map[string]core.Value{"pixels": core.Num(float64(1024 + i%distinct)), "zeros": core.Num(0)})
		reqs[i] = c.EvalRequestFor("ml_webservice", "handle", []core.Value{arg}, core.Expected())
	}
	if _, err := c.EvalBatchCtx(context.Background(), reqs); err != nil { // warm every key
		t.Fatal(err)
	}
	before := atomic.LoadUint64(&srv.counts.Evaluations)
	allocs, bytes := countPerRun(20, func() {
		got, err := c.EvalBatchCtx(context.Background(), reqs)
		if err != nil || len(got) != items || !got[items-1].Cached {
			t.Fatalf("warm batch: %d items, err %v", len(got), err)
		}
	})
	if atomic.LoadUint64(&srv.counts.Evaluations) != before {
		t.Fatal("warm batch evaluated")
	}
	// AllocsPerRun's warm-up run made the answers held; every run after it
	// got its distinct items back held.
	if held := c.Counters().Held; held != 20*distinct {
		t.Errorf("%d answers came back held, want %d", held, 20*distinct)
	}
	t.Logf("warm %d-item batch over %d keys: %.0f allocs, %.0f bytes", items, distinct, allocs, bytes)
	if (allocs > bound || bytes > byteBound) && !raceEnabled {
		t.Errorf("warm batch made %.0f allocations of %.0f bytes, want <= %d and %d", allocs, bytes, bound, byteBound)
	}

	// The same batch from a client that holds nothing — its store emptied
	// before each run — gets every distinct answer in full and holds it.
	full, fullBytes := countPerRun(20, func() {
		c.held.Purge()
		if got, err := c.EvalBatchCtx(context.Background(), reqs); err != nil || got[0].Dist == nil {
			t.Fatalf("warm batch in full: err %v", err)
		}
	})
	if held := c.Counters().Held; held != 20*distinct {
		t.Errorf("%d answers came back held to a client holding nothing", held-20*distinct)
	}
	t.Logf("the same, answered in full: %.0f allocs, %.0f bytes", full, fullBytes)
	if (full > fullBound || fullBytes > fullByteBound) && !raceEnabled {
		t.Errorf("warm batch answered in full made %.0f allocations of %.0f bytes, want <= %d and %d", full, fullBytes, fullBound, fullByteBound)
	}
}

// TestBatchRetainsOnlyColdKeys: a batch pins neither its key string nor
// its argument array past its own request. 400 batches of 255 warm items
// and one cold one go through a node whose misses are probed on a second
// node; every cold key stays in the memo (capacity 1,024). A cold key that
// aliased its batch's one key string would keep that string — ≈ 20 KB —
// alive per memo entry, ≈ 8 MB in all; the heap may grow by 1 MiB.
func TestBatchRetainsOnlyColdKeys(t *testing.T) {
	const batches, warm, maxGrowth = 400, 255, 1 << 20
	node, peer := NewServer(Config{MemoCapacity: 1024}), NewServer(Config{})
	if _, err := node.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	peer.ApplyRegistrySnapshot(node.Registry().Snapshot())
	pc := NewClient("http://peer")
	pc.SetTransport(NewLoopbackTransport(peer))
	node.SetPeerLookup(func(ctx context.Context, _ time.Time, keys []string) []PeerAnswer {
		answers, _, err := pc.CacheLookupCtx(ctx, keys, false)
		if err != nil {
			t.Error(err)
			return make([]PeerAnswer, len(keys))
		}
		return answers
	})
	c := NewClient("http://node")
	c.SetTransport(NewLoopbackTransport(node))
	req := func(pixels int) EvalRequest {
		arg := core.Record(map[string]core.Value{"pixels": core.Num(float64(pixels)), "zeros": core.Num(0)})
		return c.EvalRequestFor("ml_webservice", "handle", []core.Value{arg}, core.Expected())
	}
	reqs := make([]EvalRequest, warm+1)
	for i := range warm {
		reqs[i] = req(1024 + i)
	}
	send := func(b int) {
		reqs[warm] = req(1<<20 + b) // the cold item
		got, err := c.EvalBatchCtx(context.Background(), reqs)
		if err != nil || got[warm].Cached || !got[0].Cached && b >= 0 {
			t.Fatalf("batch %d: err %v", b, err)
		}
	}
	for b := range 10 { // warm the memo and every pool
		send(-1 - b)
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	for b := range batches {
		send(b)
	}
	after := heap()
	if hits, misses, _, size := node.memo.Stats(); size != warm+10+batches {
		t.Fatalf("memo holds %d entries (%d hits, %d misses), want %d", size, hits, misses, warm+10+batches)
	}
	t.Logf("%d batches, %d cold keys kept: heap %+d bytes", batches, batches, int64(after)-int64(before))
	if after > before+maxGrowth {
		t.Errorf("heap grew %d bytes over %d batches, want <= %d", after-before, batches, maxGrowth)
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
	if _, err := client.RegisterCtx(context.Background(), hybridLayerEIL); err != nil {
		t.Fatal(err)
	}
	arg := func(pixels float64) []core.Value {
		return []core.Value{core.Record(map[string]core.Value{
			"pixels": core.Num(pixels), "zeros": core.Num(0),
		})}
	}
	if _, _, err := client.EvalCtx(context.Background(), "ml_hybrid", "handle", arg(512), core.Expected()); err != nil {
		t.Fatal(err)
	}
	// Different argument → memo miss, but the mlp(256) sub-call repeats.
	if _, _, err := client.EvalCtx(context.Background(), "ml_hybrid", "handle", arg(768), core.Expected()); err != nil {
		t.Fatal(err)
	}
	st, err := client.StatsCtx(context.Background())
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
	if _, err := client.RegisterCtx(context.Background(), altHW); err != nil {
		t.Fatal(err)
	}
	if _, err := client.RebindCtx(context.Background(), "ml_hybrid", "accel", "accel_hw_v2"); err != nil {
		t.Fatal(err)
	}
	st2, err := client.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st2.LayerInvalidations <= st.LayerInvalidations {
		t.Fatalf("invalidations %d -> %d, want an increase after rebind",
			st.LayerInvalidations, st2.LayerInvalidations)
	}
}
