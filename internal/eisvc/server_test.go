package eisvc

import (
	"context"
	"fmt"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/energy"
)

// testEIL is a two-layer stack with two ECVs — small enough to enumerate,
// rich enough that every mode returns a different distribution.
const testEIL = `
interface accel_hw {
  func conv2d(n) { return 0.004mJ * n }
  func mlp(n)    { return 0.01mJ * n }
}
interface ml_webservice {
  ecv request_hit: bernoulli(0.3)
  ecv local_cache_hit: bernoulli(0.8)
  uses accel: accel_hw
  func handle(request) {
    if request_hit {
      if local_cache_hit { return 5mJ * 1024 }
      return 100mJ * 1024
    }
    return 8 * accel.conv2d(request.pixels - request.zeros) + 16 * accel.mlp(256)
  }
}
`

// altHW prices the accelerator differently, for rebinding tests.
const altHW = `
interface accel_hw_v2 {
  func conv2d(n) { return 0.008mJ * n }
  func mlp(n)    { return 0.02mJ * n }
}
`

func newTestDaemon(t testing.TB, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv)
	c := NewClient(ts.URL)
	c.ID = "test-client"
	return srv, c, ts.Close
}

func localIface(t testing.TB) *core.Interface {
	t.Helper()
	compiled, err := eil.Compile(testEIL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return compiled["ml_webservice"]
}

func reqArg() core.Value {
	return core.Record(map[string]core.Value{
		"pixels": core.Num(1e6), "zeros": core.Num(2e5),
	})
}

func sameDist(t *testing.T, label string, got, want energy.Dist) {
	t.Helper()
	gx, gp := got.Support(), got.Probs()
	wx, wp := want.Support(), want.Probs()
	if len(gx) != len(wx) {
		t.Fatalf("%s: support %d points, want %d", label, len(gx), len(wx))
	}
	for i := range wx {
		if gx[i] != wx[i] || gp[i] != wp[i] {
			t.Fatalf("%s: point %d = (%v, %v), want (%v, %v) exactly",
				label, i, gx[i], gp[i], wx[i], wp[i])
		}
	}
}

// TestEvalBitIdenticalAllModes is the acceptance check: for every mode,
// and across parallelism levels, the daemon's answer equals a direct
// in-process Interface.Eval bit for bit.
func TestEvalBitIdenticalAllModes(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	local := localIface(t)
	args := []core.Value{reqArg()}

	allPinned := map[string]core.Value{
		"request_hit": core.Bool(false), "local_cache_hit": core.Bool(true),
	}
	cases := []struct {
		name string
		opts core.EvalOptions
	}{
		{"expected", core.Expected()},
		{"worst-case", core.WorstCase()},
		{"best-case", core.BestCase()},
		{"fixed", core.FixedAssignment(allPinned)},
		{"monte-carlo", core.MonteCarlo(1024, 42)},
		{"monte-carlo-par4", func() core.EvalOptions {
			o := core.MonteCarlo(4096, 7)
			o.Parallelism = 4
			return o
		}()},
		{"expected-pinned", func() core.EvalOptions {
			o := core.Expected()
			o.Fixed = map[string]core.Value{"request_hit": core.Bool(true)}
			return o
		}()},
		{"expected-mc-fallback", func() core.EvalOptions {
			// EnumLimit 1 forces the Monte Carlo fallback inside ModeExpected.
			o := core.Expected()
			o.EnumLimit = 1
			o.Samples = 512
			o.Seed = 11
			return o
		}()},
	}
	for _, tc := range cases {
		want, err := local.Eval("handle", args, tc.opts)
		if err != nil {
			t.Fatalf("%s: local eval: %v", tc.name, err)
		}
		got, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, tc.opts)
		if err != nil {
			t.Fatalf("%s: daemon eval: %v", tc.name, err)
		}
		sameDist(t, tc.name, got, want)
		if resp.Mode != tc.opts.Mode.String() {
			t.Errorf("%s: response mode %q", tc.name, resp.Mode)
		}
		// The parallel engine guarantee carried over the wire: a second ask
		// at a different parallelism must hit the memo (same canonical key).
		repeat := tc.opts
		repeat.Parallelism = 3
		got2, resp2, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, repeat)
		if err != nil {
			t.Fatalf("%s: repeat eval: %v", tc.name, err)
		}
		if !resp2.Cached {
			t.Errorf("%s: repeat at different parallelism missed the memo", tc.name)
		}
		sameDist(t, tc.name+" repeat", got2, want)
		// A Monte Carlo answer belongs to its seed: a fresh seed is a new
		// question, never a memo hit.
		if tc.opts.Mode == core.ModeMonteCarlo {
			reseeded := tc.opts
			reseeded.Seed++
			if _, resp3, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, reseeded); err != nil {
				t.Fatalf("%s: reseeded eval: %v", tc.name, err)
			} else if resp3.Cached {
				t.Errorf("%s: a fresh seed hit the memo", tc.name)
			}
		}
	}
}

// TestMemoInvalidation re-registers and rebinds, checking the memo never
// serves a stale distribution.
func TestMemoInvalidation(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	args := []core.Value{reqArg()}
	opts := core.Expected()

	d1, r1, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Error("first eval cached")
	}
	_, r2, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Error("second identical eval not cached")
	}

	// Re-register: same source, new version — cache must not carry over.
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	_, r3, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("eval after re-register served from stale memo")
	}
	if r3.Version == r1.Version {
		t.Error("re-register did not bump the version")
	}

	// Rebind the accelerator to a pricier one: new version AND new values.
	if _, err := c.RegisterCtx(context.Background(), altHW); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RebindCtx(context.Background(), "ml_webservice", "accel", "accel_hw_v2"); err != nil {
		t.Fatal(err)
	}
	d4, r4, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Cached {
		t.Error("eval after rebind served from stale memo")
	}
	if d4.Mean() <= d1.Mean() {
		t.Errorf("rebound accel should cost more: %v <= %v", d4.Mean(), d1.Mean())
	}
	// The rebound stack must match a locally-rebound reference exactly.
	localAlt, err := eil.Compile(altHW, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := localIface(t).Rebind("accel", localAlt["accel_hw_v2"])
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Eval("handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameDist(t, "rebound", d4, want)
}

// TestConcurrentClients hammers one interface from 8 goroutines mixing
// memo hits and distinct queries; run under -race via `make race`.
func TestConcurrentClients(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	local := localIface(t)
	args := []core.Value{reqArg()}

	const goroutines = 8
	const evalsPer = 24
	refs := make([]energy.Dist, 4)
	for seed := range refs {
		d, err := local.Eval("handle", args, core.MonteCarlo(512, int64(seed)))
		if err != nil {
			t.Fatal(err)
		}
		refs[seed] = d
	}

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*evalsPer)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := NewClient(c.base)
			cl.ID = fmt.Sprintf("client-%d", g)
			for i := 0; i < evalsPer; i++ {
				seed := (g + i) % len(refs)
				d, _, err := cl.EvalCtx(context.Background(), "ml_webservice", "handle", args, core.MonteCarlo(512, int64(seed)))
				if err != nil {
					errs <- err
					return
				}
				want := refs[seed]
				gx, wx := d.Support(), want.Support()
				if len(gx) != len(wx) {
					errs <- fmt.Errorf("goroutine %d: support mismatch", g)
					return
				}
				for k := range wx {
					if gx[k] != wx[k] {
						errs <- fmt.Errorf("goroutine %d: support[%d] %v != %v", g, k, gx[k], wx[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.EvalRequests < goroutines*evalsPer {
		t.Errorf("eval requests %d, want >= %d", st.EvalRequests, goroutines*evalsPer)
	}
	if st.MemoHits == 0 {
		t.Error("no memo hits under a 4-seed working set")
	}
	if len(st.Clients) < goroutines {
		t.Errorf("ledger tracked %d clients, want >= %d", len(st.Clients), goroutines)
	}
	for id, e := range st.Clients {
		if e.Requests > 0 && (e.MeanJ <= 0 || e.WorstJ < e.MeanJ) {
			t.Errorf("client %s: implausible ledger %+v", id, e)
		}
	}
}

// TestOverloadSheds fills the worker pool and the queue and checks the
// daemon sheds with 429/503 instead of queueing without bound. The one
// worker is held on a gate, not a sleep, until nine of the ten requests
// have returned, so the split is exactly what the admission rules give:
// one request runs (200), two wait in the queue until their deadline
// (503), and the seven that find the queue full are refused at once (429).
func TestOverloadSheds(t *testing.T) {
	srv, c, done := newTestDaemon(t, Config{
		Workers:         1,
		QueueLimit:      2,
		DefaultDeadline: 300 * time.Millisecond,
	})
	defer done()
	running, gate := make(chan struct{}, 10), make(chan struct{})
	slow := core.New("slow").MustMethod(core.Method{
		Name: "crunch", Params: []string{"n"},
		Body: func(cc *core.Call) energy.Joules {
			running <- struct{}{}
			<-gate
			return energy.Joules(cc.Num(0))
		},
	})
	if _, err := srv.Registry().RegisterInterface("slow", slow); err != nil {
		t.Fatal(err)
	}

	const inflight = 10
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	returned := 0
	send := func(i int) {
		defer wg.Done()
		// Distinct args defeat the memo, so every request needs a slot.
		_, _, err := c.EvalCtx(context.Background(), "slow", "crunch", []core.Value{core.Num(float64(i))}, core.Expected())
		status := http.StatusOK
		if err != nil {
			apiErr, ok := err.(*APIError)
			switch {
			case !ok:
				t.Errorf("request %d: %v", i, err)
			case !apiErr.Shed():
				t.Errorf("request %d: unexpected API error %v", i, apiErr)
			}
			if ok {
				status = apiErr.Status
			}
		}
		mu.Lock()
		defer mu.Unlock()
		statuses[status]++
		if returned++; returned == inflight-1 {
			close(gate)
		}
	}
	// The first request holds the worker before the other nine arrive.
	wg.Add(inflight)
	go send(0)
	<-running
	for i := 1; i < inflight; i++ {
		go send(i)
	}
	wg.Wait()

	want := map[int]int{http.StatusOK: 1, http.StatusTooManyRequests: 7, http.StatusServiceUnavailable: 2}
	if !maps.Equal(statuses, want) {
		t.Errorf("statuses %v, want %v", statuses, want)
	}
	shed := statuses[http.StatusTooManyRequests] + statuses[http.StatusServiceUnavailable]
	st, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedQueueFull+st.ShedDeadline != uint64(shed) {
		t.Errorf("stats sheds %d+%d, client saw %d", st.ShedQueueFull, st.ShedDeadline, shed)
	}
	if st.PeakQueue < 1 {
		t.Errorf("peak queue %d, want >= 1", st.PeakQueue)
	}
}

// TestRegistryEndpoints covers listing, describe, source, and error paths.
func TestRegistryEndpoints(t *testing.T) {
	srv, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	infos, err := c.InterfacesCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("interfaces = %d, want 2", len(infos))
	}
	// Sorted by name: accel_hw then ml_webservice.
	if infos[0].Name != "accel_hw" || infos[1].Name != "ml_webservice" {
		t.Fatalf("listing order %q, %q", infos[0].Name, infos[1].Name)
	}
	svc := infos[1]
	if len(svc.ECVs) != 2 || svc.ECVs[0] != "local_cache_hit" {
		t.Errorf("ECVs = %v", svc.ECVs)
	}
	if len(svc.Bindings) != 1 || svc.Bindings[0] != "accel" {
		t.Errorf("bindings = %v", svc.Bindings)
	}
	src, err := c.SourceCtx(context.Background(), "ml_webservice")
	if err != nil {
		t.Fatal(err)
	}
	if src != testEIL {
		t.Error("source round trip mismatch")
	}

	// Native interfaces have no source.
	native := core.New("hw_native").MustMethod(core.Method{
		Name: "op", Body: func(*core.Call) energy.Joules { return 1 },
	})
	if _, err := srv.Registry().RegisterInterface("hw_native", native); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SourceCtx(context.Background(), "hw_native"); err == nil {
		t.Error("native source fetch should 404")
	}

	// Unknown interface and bad mode are client errors, not 500s.
	if _, _, err := c.EvalCtx(context.Background(), "nope", "handle", nil, core.Expected()); err == nil {
		t.Error("eval of unknown interface succeeded")
	} else if apiErr, ok := err.(*APIError); !ok || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown interface: %v", err)
	}
	if _, err := c.RegisterCtx(context.Background(), "interface broken {"); err == nil {
		t.Error("malformed source accepted")
	}
	if _, err := c.HealthzCtx(context.Background()); err != nil {
		t.Errorf("healthz: %v", err)
	}
}

// TestServerCaps rejects oversized sample/enum asks before admission.
func TestServerCaps(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{MaxSamples: 1000})
	defer done()
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	_, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", []core.Value{reqArg()}, core.MonteCarlo(5000, 1))
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("oversized samples: %v", err)
	}
	opts := core.Expected()
	opts.EnumLimit = maxEnumLimit + 1
	_, _, err = c.EvalCtx(context.Background(), "ml_webservice", "handle", []core.Value{reqArg()}, opts)
	apiErr, ok = err.(*APIError)
	if !ok || apiErr.Status != http.StatusBadRequest {
		t.Errorf("oversized enum limit: %v", err)
	}
}

// TestLongDeadlineServed: a deadline_ms past what a time.Duration holds in
// nanoseconds is a very long wait, not one that has already expired, on
// /v1/eval and on /v1/evalbatch alike: an idle daemon answers 200, not 503.
func TestLongDeadlineServed(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{NoMemo: true})
	defer done()
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	const deadlineMs = 1e13 // > math.MaxInt64 ns
	req := c.EvalRequestFor("ml_webservice", "handle", []core.Value{reqArg()}, core.Expected())
	req.DeadlineMs = deadlineMs
	if err := EvalEndpoint.call(context.Background(), c, &req, new(EvalResponse), nil); err != nil {
		t.Errorf("eval with deadline_ms %d: %v", req.DeadlineMs, err)
	}
	items, err := c.EvalBatchCtx(context.Background(), []EvalRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Status != http.StatusOK {
		t.Errorf("batch item with deadline_ms %d: status %d, %s", req.DeadlineMs, items[0].Status, items[0].Error)
	}
}

// TestParallelismClamped: parallelism is remote input that sizes a
// goroutine fan-out, so an explicit value past GOMAXPROCS is clamped to
// it — what 0 already means — and answers the same bits as 0 does.
func TestParallelismClamped(t *testing.T) {
	srv, c, done := newTestDaemon(t, Config{NoMemo: true, NoLayerCache: true})
	defer done()
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	mc := core.MonteCarlo(1<<16, 3)
	mc.Parallelism = 1 << 20
	req := c.EvalRequestFor("ml_webservice", "handle", []core.Value{reqArg()}, mc)
	kc := newCoder(keying, nil, binaryFrame(&EvalEndpoint.Request, &req))
	kc.header(kindEvalRequest)
	var k keyedItem
	srv.keyItem(kc, &k)
	if err := kc.release(); err != nil || k.rej != nil {
		t.Fatal(err, k.rej)
	}
	if opts := k.opts; opts.Parallelism != runtime.GOMAXPROCS(0) {
		t.Fatalf("parallelism %d came back as %d, want GOMAXPROCS %d", mc.Parallelism, k.opts.Parallelism, runtime.GOMAXPROCS(0))
	}

	_, huge, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", []core.Value{reqArg()}, mc)
	if err != nil {
		t.Fatal(err)
	}
	mc.Parallelism = 0
	_, auto, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", []core.Value{reqArg()}, mc)
	if err != nil {
		t.Fatal(err)
	}
	if huge.Cached || auto.Cached {
		t.Fatal("an answer came from the memo; both must evaluate")
	}
	g, w := huge.Dist, auto.Dist
	same := len(g.Support) == len(w.Support) && len(g.Probs) == len(w.Probs)
	for i := 0; same && i < len(w.Support); i++ {
		same = math.Float64bits(g.Support[i]) == math.Float64bits(w.Support[i]) &&
			math.Float64bits(g.Probs[i]) == math.Float64bits(w.Probs[i])
	}
	if !same {
		t.Fatalf("parallelism 1<<20 answered %v / %v, parallelism 0 %v / %v", g.Support, g.Probs, w.Support, w.Probs)
	}
}
