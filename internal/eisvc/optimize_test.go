package eisvc_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"energyclarity/internal/autoopt"
	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/eisvc"
)

// The auto-optimizer is a client of the daemon: autoopt.FleetEvaluator
// fits the frontier locally and buys each configuration's evaluations as
// /v1/evalbatch items. These tests drive it against a live daemon.

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

func optSpec() autoopt.Spec {
	return autoopt.Spec{
		Space: autoopt.Space{
			{Name: "batch", Values: []float64{1, 2, 4, 8}},
			{Name: "level", Values: []float64{0, 1, 2, 3}},
		},
		SLOMs: 9,
	}
}

// optDaemon serves optEIL through handler, which wraps the daemon (nil:
// the daemon itself), and returns a client of it.
func optDaemon(t *testing.T, handler func(*eisvc.Server) http.Handler) *eisvc.Client {
	t.Helper()
	srv := eisvc.NewServer(eisvc.Config{})
	if _, err := srv.Registry().RegisterSource(optEIL); err != nil {
		t.Fatal(err)
	}
	var h http.Handler = srv
	if handler != nil {
		h = handler(srv)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return eisvc.NewClient(ts.URL)
}

// optSweep sweeps spec over c: one batch of 2 items a configuration.
func optSweep(ctx context.Context, c *eisvc.Client, spec autoopt.Spec, iface string, opts core.EvalOptions) (*autoopt.Result, error) {
	return autoopt.Sweep(ctx, spec, autoopt.FleetEvaluator(c, iface, "energy", "latency", opts))
}

// TestOptimizeServedSweep drives the sweep against a daemon over both
// codecs: the cold sweep must be served by no memo, the frontier must be
// non-trivial and strictly ordered, the SLO pick must beat max-perf, the
// two codecs must agree bit for bit, a repeat must be entirely
// memo-served, and /v1/stats must count only the cold sweep's
// evaluations and one round trip a sweep.
func TestOptimizeServedSweep(t *testing.T) {
	c := optDaemon(t, nil)
	first, err := optSweep(context.Background(), c, optSpec(), "opt_stack", core.Expected())
	if err != nil {
		t.Fatal(err)
	}
	if first.Configs != 16 || first.Skipped != 0 || first.Evals != 32 || first.MemoServed != 0 {
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
	again, err := optSweep(context.Background(), c, optSpec(), "opt_stack", core.Expected())
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != first.Digest {
		t.Fatalf("repeat digest %x != %x", again.Digest, first.Digest)
	}
	if again.MemoServed != again.Evals {
		t.Fatalf("repeat sweep memo-served %d of %d evals", again.MemoServed, again.Evals)
	}

	// The JSON codec answers the same sweep bit-identically.
	c.Binary = false
	js, err := optSweep(context.Background(), c, optSpec(), "opt_stack", core.Expected())
	if err != nil {
		t.Fatal(err)
	}
	if js.Digest != first.Digest || len(js.Frontier) != len(first.Frontier) {
		t.Fatalf("JSON digest %x != binary digest %x", js.Digest, first.Digest)
	}
	if js.MemoServed != js.Evals {
		t.Fatalf("JSON sweep memo-served %d of %d evals", js.MemoServed, js.Evals)
	}

	st, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluations != uint64(first.Evals) {
		t.Fatalf("%d evaluations for three sweeps, want the cold one's %d", st.Evaluations, first.Evals)
	}
	if st.BatchRequests != 3 || st.BatchItems != 3*uint64(first.Evals) {
		t.Fatalf("three sweeps of %d items took %d round trips for %d items, want 3", first.Evals, st.BatchRequests, st.BatchItems)
	}
}

// TestOptimizeDigestStableAcrossParallelism pins bit-determinism of the
// fleet-client sweep at every parallelism, cold and warm, over both
// codecs.
func TestOptimizeDigestStableAcrossParallelism(t *testing.T) {
	var want uint64
	for _, binary := range []bool{false, true} {
		for _, par := range []int{1, 2, 8} {
			c := optDaemon(t, nil)
			c.Binary = binary
			opts := core.Expected()
			opts.Parallelism = par
			cold, err := optSweep(context.Background(), c, optSpec(), "opt_stack", opts)
			if err != nil {
				t.Fatal(err)
			}
			if want == 0 {
				want = cold.Digest
			} else if cold.Digest != want {
				t.Fatalf("binary=%v parallelism %d: cold digest %x != %x", binary, par, cold.Digest, want)
			}
			warm, err := optSweep(context.Background(), c, optSpec(), "opt_stack", opts)
			if err != nil {
				t.Fatal(err)
			}
			if warm.Digest != want {
				t.Fatalf("binary=%v parallelism %d: warm digest %x != %x", binary, par, warm.Digest, want)
			}
			if warm.MemoServed != warm.Evals {
				t.Fatalf("binary=%v parallelism %d: warm sweep memo-served %d of %d evals", binary, par, warm.MemoServed, warm.Evals)
			}
		}
	}
}

// TestOptimizeBatchEvaluatorMatchesServed pins that the fleet-client sweep
// (Pareto math local, evaluations bought via /v1/evalbatch) fits the same
// frontier as the in-process CoreEvaluator sweep, bit for bit, over both
// codecs.
func TestOptimizeBatchEvaluatorMatchesServed(t *testing.T) {
	stacks, err := eil.Compile(optEIL, nil)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := autoopt.Sweep(context.Background(), optSpec(),
		autoopt.CoreEvaluator(stacks["opt_stack"], "energy", "latency", core.Expected()))
	if err != nil {
		t.Fatal(err)
	}
	for _, binary := range []bool{false, true} {
		c := optDaemon(t, nil)
		c.Binary = binary
		fleet, err := optSweep(context.Background(), c, optSpec(), "opt_stack", core.Expected())
		if err != nil {
			t.Fatal(err)
		}
		if fleet.Digest != offline.Digest {
			t.Fatalf("binary=%v: fleet digest %x != offline digest %x", binary, fleet.Digest, offline.Digest)
		}
		if len(fleet.Frontier) != len(offline.Frontier) {
			t.Fatalf("binary=%v: fleet frontier has %d points, offline %d", binary, len(fleet.Frontier), len(offline.Frontier))
		}
	}
}

// TestOptimizeValidation: a space the sweep cannot enumerate fails before
// any request leaves the client, and an item the daemon refuses fails the
// sweep with the daemon's status (an exact frontier cannot be fit over
// partial samples).
func TestOptimizeValidation(t *testing.T) {
	c := optDaemon(t, nil)
	spec := optSpec()
	spec.Space[0].Values = []float64{2, 2}
	if _, err := optSweep(context.Background(), c, spec, "opt_stack", core.Expected()); err == nil {
		t.Fatal("duplicate knob value swept")
	}
	spec = optSpec()
	spec.MaxConfigs = 3
	if _, err := optSweep(context.Background(), c, spec, "opt_stack", core.Expected()); err == nil {
		t.Fatal("space over its cap swept")
	}
	if st, err := c.StatsCtx(context.Background()); err != nil || st.BatchRequests != 0 {
		t.Fatalf("an invalid space reached the daemon: %d batches, err %v", st.BatchRequests, err)
	}

	wantStatus := func(label, iface string, opts core.EvalOptions, status string) {
		t.Helper()
		_, err := optSweep(context.Background(), c, optSpec(), iface, opts)
		if err == nil || !strings.Contains(err.Error(), ": "+status+" ") {
			t.Fatalf("%s: err = %v, want an item failing with %s", label, err, status)
		}
	}
	wantStatus("unknown interface", "nope", core.Expected(), "404")
	wantStatus("samples over cap", "opt_stack", core.MonteCarlo(1<<21, 1), "400")
	_, err := autoopt.Sweep(context.Background(), optSpec(),
		autoopt.FleetEvaluator(c, "opt_stack", "no_such_method", "latency", core.Expected()))
	if err == nil || !strings.Contains(err.Error(), ": 422 ") {
		t.Fatalf("unknown method: err = %v, want an item failing with 422", err)
	}
}

// TestOptimizeRetriesShed: a sweep's batches are evaluations, so a shed
// answer retries per the client's policy and the sweep still lands.
func TestOptimizeRetriesShed(t *testing.T) {
	var n atomic.Int64
	c := optDaemon(t, func(srv *eisvc.Server) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == eisvc.EvalBatchEndpoint.Path && n.Add(1) <= 2 {
				w.Header().Set("Retry-After", "0")
				eisvc.WriteError(w, http.StatusServiceUnavailable, "shedding")
				return
			}
			srv.ServeHTTP(w, r)
		})
	})
	c.Retry = (&eisvc.RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}).Seed(42)
	res, err := optSweep(context.Background(), c, optSpec(), "opt_stack", core.Expected())
	if err != nil {
		t.Fatalf("sweep after sheds: %v", err)
	}
	if len(res.Frontier) == 0 {
		t.Fatalf("retried sweep returned empty frontier: %+v", res)
	}
	if cs := c.Counters(); cs.Retries != 2 || cs.Shed != 2 {
		t.Errorf("counters = %+v, want Retries=2 Shed=2", cs)
	}
}

// TestOptimizeHonorsContext: a cancelled context abandons the sweep
// instead of retrying it.
func TestOptimizeHonorsContext(t *testing.T) {
	c := optDaemon(t, nil)
	c.Retry = (&eisvc.RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond}).Seed(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := optSweep(ctx, c, optSpec(), "opt_stack", core.Expected()); err == nil {
		t.Fatal("sweep succeeded with a cancelled context")
	}
	if cs := c.Counters(); cs.Retries != 0 {
		t.Errorf("cancelled sweep retried %d times", cs.Retries)
	}
}
