package eisvc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"energyclarity/internal/autoopt"
	"energyclarity/internal/core"
)

// optEIL trades energy for latency along two knobs: raising level (or
// batch) burns more joules but answers faster, so the frontier is
// non-trivial and an SLO pick genuinely saves energy.
const optEIL = `
interface opt_stack {
  ecv jitter: choice { 1: 0.5, 1.2: 0.3, 1.6: 0.2 }
  func energy(batch, level) { return (10nJ + 3nJ * (level + 1) * batch) * jitter }
  func latency(batch, level) { return (8 / (1 + level) + 0.5 * batch) * jitter }
}
`

func optRequest() OptimizeRequest {
	return OptimizeRequest{
		Interface:     "opt_stack",
		EnergyMethod:  "energy",
		LatencyMethod: "latency",
		Knobs: []OptimizeKnob{
			{Name: "batch", Values: []float64{1, 2, 4, 8}},
			{Name: "level", Values: []float64{0, 1, 2, 3}},
		},
		SLOMs: 9,
	}
}

// TestOptimizeServedSweep drives POST /v1/optimize over both codecs:
// the frontier must be non-trivial, the SLO pick must beat max-perf,
// the digests must agree between JSON and binary, a repeat sweep must
// be entirely memo-served, and /v1/stats must account all of it.
func TestOptimizeServedSweep(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := c.Register(optEIL); err != nil {
		t.Fatal(err)
	}

	first, err := c.Optimize(optRequest())
	if err != nil {
		t.Fatal(err)
	}
	if first.Configs != 16 || first.Skipped != 0 || first.Evals != 32 {
		t.Fatalf("sweep accounting wrong: %+v", first)
	}
	if len(first.Frontier) < 3 {
		t.Fatalf("frontier has %d points, want >= 3: %+v", len(first.Frontier), first.Frontier)
	}
	if first.Recommended == nil || first.MaxPerf == nil {
		t.Fatalf("missing recommendation: %+v", first)
	}
	if first.Recommended.LatencyMs > first.SLOMs {
		t.Fatalf("recommended point %+v violates SLO %v", first.Recommended, first.SLOMs)
	}
	if first.SavingsFrac <= 0 {
		t.Fatalf("SLO pick saves nothing: %+v", first)
	}
	for i := 1; i < len(first.Frontier); i++ {
		p, q := first.Frontier[i-1], first.Frontier[i]
		if q.LatencyMs <= p.LatencyMs || q.EnergyJ >= p.EnergyJ {
			t.Fatalf("frontier not strictly ordered at %d: %+v", i, first.Frontier)
		}
	}

	// Repeat sweep: every evaluation is already memoized.
	again, err := c.Optimize(optRequest())
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != first.Digest {
		t.Fatalf("repeat digest %x != %x", again.Digest, first.Digest)
	}
	if again.MemoServed != again.Evals {
		t.Fatalf("repeat sweep memo-served %d of %d evals", again.MemoServed, again.Evals)
	}

	// Binary codec answers the same sweep bit-identically.
	c.Binary = true
	bin, err := c.Optimize(optRequest())
	if err != nil {
		t.Fatal(err)
	}
	if bin.Digest != first.Digest || len(bin.Frontier) != len(first.Frontier) {
		t.Fatalf("binary digest %x != JSON digest %x", bin.Digest, first.Digest)
	}
	c.Binary = false

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.OptimizeRequests != 3 {
		t.Fatalf("optimize_requests = %d, want 3", st.OptimizeRequests)
	}
	wantEvals := uint64(first.Evals + again.Evals + bin.Evals)
	if st.OptimizeEvals != wantEvals {
		t.Fatalf("optimize_evals = %d, want %d", st.OptimizeEvals, wantEvals)
	}
	if st.OptimizeMemoServed < uint64(again.MemoServed+bin.MemoServed) || st.OptimizeMemoServed > st.OptimizeEvals {
		t.Fatalf("optimize_memo_served = %d inconsistent (evals %d)", st.OptimizeMemoServed, st.OptimizeEvals)
	}
}

// TestOptimizeDigestStableAcrossParallelism pins bit-determinism of the
// served sweep at every parallelism, cold and warm.
func TestOptimizeDigestStableAcrossParallelism(t *testing.T) {
	var want uint64
	for _, par := range []int{1, 2, 8} {
		srv, c, done := newTestDaemon(t, Config{Workers: 4})
		if _, err := c.Register(optEIL); err != nil {
			t.Fatal(err)
		}
		req := optRequest()
		req.Parallelism = par
		res, err := c.Optimize(req)
		if err != nil {
			t.Fatal(err)
		}
		if want == 0 {
			want = res.Digest
		} else if res.Digest != want {
			t.Fatalf("parallelism %d digest %x != %x", par, res.Digest, want)
		}
		_ = srv
		done()
	}
}

func TestOptimizeValidation(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := c.Register(optEIL); err != nil {
		t.Fatal(err)
	}
	wantStatus := func(label string, req OptimizeRequest, status int) {
		t.Helper()
		_, err := c.Optimize(req)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != status {
			t.Fatalf("%s: err = %v, want API status %d", label, err, status)
		}
	}
	req := optRequest()
	req.LatencyMethod = ""
	wantStatus("missing method", req, http.StatusBadRequest)

	req = optRequest()
	req.Interface = "nope"
	wantStatus("unknown interface", req, http.StatusNotFound)

	req = optRequest()
	req.Knobs[0].Values = []float64{2, 2}
	wantStatus("duplicate knob value", req, http.StatusBadRequest)

	req = optRequest()
	req.MaxConfigs = 3
	wantStatus("space over cap", req, http.StatusBadRequest)

	req = optRequest()
	req.EnergyMethod = "no_such_method"
	wantStatus("unknown method", req, http.StatusUnprocessableEntity)
}

// TestOptimizeBatchEvaluatorMatchesServed pins that the pure-client
// sweep (Pareto math local, evaluations bought via /v1/evalbatch) fits
// the same frontier as the served sweep, bit for bit.
func TestOptimizeBatchEvaluatorMatchesServed(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := c.Register(optEIL); err != nil {
		t.Fatal(err)
	}
	served, err := c.Optimize(optRequest())
	if err != nil {
		t.Fatal(err)
	}
	c.Binary = true
	wire := optRequest()
	space := make(autoopt.Space, len(wire.Knobs))
	for i, k := range wire.Knobs {
		space[i] = autoopt.Knob{Name: k.Name, Values: k.Values}
	}
	eval := c.BatchEvaluator(wire.Interface, wire.EnergyMethod, wire.LatencyMethod, core.EvalOptions{Mode: core.ModeExpected}, 6)
	local, err := autoopt.Sweep(context.Background(), autoopt.Spec{Space: space, SLOMs: wire.SLOMs}, eval)
	if err != nil {
		t.Fatal(err)
	}
	if local.Digest != served.Digest {
		t.Fatalf("client-side digest %x != served digest %x", local.Digest, served.Digest)
	}
	// Everything was memoized by the served sweep already.
	if local.MemoServed != local.Evals {
		t.Fatalf("warm batch sweep memo-served %d of %d evals", local.MemoServed, local.Evals)
	}
}

// TestOptimizeRetriesShed pins the satellite: Optimize is idempotent,
// so a shed answer retries per the policy and still lands.
func TestOptimizeRetriesShed(t *testing.T) {
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(optEIL); err != nil {
		t.Fatal(err)
	}
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/optimize" && n.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			WriteError(w, http.StatusServiceUnavailable, "shedding")
			return
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Retry = (&RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}).Seed(42)
	res, err := c.Optimize(optRequest())
	if err != nil {
		t.Fatalf("Optimize after sheds: %v", err)
	}
	if len(res.Frontier) == 0 {
		t.Fatalf("retried sweep returned empty frontier: %+v", res)
	}
	if cs := c.Counters(); cs.Retries != 2 || cs.Shed != 2 {
		t.Errorf("counters = %+v, want Retries=2 Shed=2", cs)
	}
}

// TestOptimizeHonorsContext pins the other half of the satellite: a
// cancelled context abandons the sweep instead of retrying it.
func TestOptimizeHonorsContext(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := c.Register(optEIL); err != nil {
		t.Fatal(err)
	}
	c.Retry = (&RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond}).Seed(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.OptimizeCtx(ctx, optRequest()); err == nil {
		t.Fatal("OptimizeCtx succeeded with a cancelled context")
	}
	if cs := c.Counters(); cs.Retries != 0 {
		t.Errorf("cancelled call retried %d times", cs.Retries)
	}
}
