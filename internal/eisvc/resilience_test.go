package eisvc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// TestRetryPolicyDelay pins the backoff arithmetic: full jitter inside the
// exponential ceiling, the Retry-After floor, and the MaxDelay cap.
func TestRetryPolicyDelay(t *testing.T) {
	p := (&RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}).Seed(1)
	for retry := 1; retry <= 12; retry++ {
		ceil := 10 * time.Millisecond << uint(retry-1)
		if ceil > 100*time.Millisecond || ceil <= 0 {
			ceil = 100 * time.Millisecond
		}
		for i := 0; i < 50; i++ {
			if d := p.delay(retry, 0); d < 0 || d > ceil {
				t.Fatalf("retry %d: delay %v outside [0, %v]", retry, d, ceil)
			}
		}
	}
	// Retry-After raises the floor above any attainable jitter...
	if d := p.delay(1, 60*time.Millisecond); d < 60*time.Millisecond {
		t.Errorf("Retry-After floor ignored: delay %v < 60ms", d)
	}
	// ...but never past the cap.
	if d := p.delay(1, 500*time.Millisecond); d != 100*time.Millisecond {
		t.Errorf("Retry-After above cap: delay %v, want 100ms", d)
	}
}

// TestClientRetriesShed drives the retry loop against a server that sheds
// twice before answering: the client must re-send with increasing
// X-Eisvc-Attempt headers, parse the Retry-After hint into the APIError,
// and count the shed answers and retries.
func TestClientRetriesShed(t *testing.T) {
	var attempts []string
	var mu sync.Mutex
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts = append(attempts, r.Header.Get(headerAttempt))
		mu.Unlock()
		if n.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			WriteError(w, http.StatusServiceUnavailable, "shedding")
			return
		}
		WriteJSON(w, http.StatusOK, HealthzResponse{Ready: true})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = (&RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}).Seed(42)
	if _, err := c.HealthzCtx(context.Background()); err != nil {
		t.Fatalf("Healthz after retries: %v", err)
	}
	mu.Lock()
	got := strings.Join(attempts, ",")
	mu.Unlock()
	if got != ",2,3" { // first attempt carries no header
		t.Errorf("attempt headers = %q, want \",2,3\"", got)
	}
	cs := c.Counters()
	if cs.Retries != 2 || cs.Shed != 2 {
		t.Errorf("counters = %+v, want Retries=2 Shed=2", cs)
	}
}

// TestClientRetryExhaustion: when every attempt sheds, the final APIError
// (with its Retry-After) surfaces after exactly MaxAttempts tries.
func TestClientRetryExhaustion(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n.Add(1)
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, "queue full")
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = (&RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}).Seed(7)
	_, err := c.HealthzCtx(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want 429 APIError", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("RetryAfter = %v, want 1s", apiErr.RetryAfter)
	}
	if got := n.Load(); got != 3 {
		t.Errorf("server saw %d attempts, want 3", got)
	}
}

// TestClientNeverRetriesMutations: Register and Rebind mutate the daemon,
// so even a retrying client sends them exactly once.
func TestClientNeverRetriesMutations(t *testing.T) {
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n.Add(1)
		WriteError(w, http.StatusServiceUnavailable, "shedding")
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Retry = (&RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond}).Seed(3)
	if _, err := c.RegisterCtx(context.Background(), "interface x {}"); err == nil {
		t.Fatal("Register against a shedding server succeeded")
	}
	if _, err := c.RebindCtx(context.Background(), "a", "b", "c"); err == nil {
		t.Fatal("Rebind against a shedding server succeeded")
	}
	if got := n.Load(); got != 2 {
		t.Errorf("server saw %d requests, want 2 (one per mutation, no retries)", got)
	}
}

// TestClientPerAttemptTimeout: a hung daemon must surface as an error
// bounded by Client.Timeout, not a hang.
func TestClientPerAttemptTimeout(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		<-r.Context().Done() // hang until the client gives up
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err := c.HealthzCtx(context.Background())
	if err == nil {
		t.Fatal("Healthz against a hung server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("timeout took %v, want ~50ms", elapsed)
	}
}

// TestClientHedging: the primary hangs, the hedge answers. The hedge must
// launch after the Hedge delay, win, and cancel the primary.
func TestClientHedging(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(headerHedge) != "1" {
			<-r.Context().Done() // primary hangs until cancelled
			return
		}
		WriteJSON(w, http.StatusOK, HealthzResponse{Ready: true})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	c.Hedge = 10 * time.Millisecond
	if _, err := c.HealthzCtx(context.Background()); err != nil {
		t.Fatalf("hedged Healthz: %v", err)
	}
	cs := c.Counters()
	if cs.Hedges != 1 || cs.HedgeWins != 1 {
		t.Errorf("counters = %+v, want Hedges=1 HedgeWins=1", cs)
	}
}

// drainGate is a native interface whose method body blocks on release, so
// drain tests control exactly when the in-flight evaluation finishes.
func drainGate(started chan<- struct{}, release <-chan struct{}) *core.Interface {
	var once sync.Once
	return core.New("gate").
		MustECV(core.NumECV("a", []float64{0, 1}, []float64{1, 1}, "")).
		MustMethod(core.Method{Name: "work", Body: func(c *core.Call) energy.Joules {
			once.Do(func() { close(started) })
			<-release
			return energy.Joules(1 + c.ECVNum("a"))
		}})
}

// TestServerDrain walks the full drain protocol: an in-flight evaluation
// keeps Drain waiting, new evaluations shed 503 with Retry-After while
// stats stays live, the in-flight answer completes normally, and Drain
// then returns.
func TestServerDrain(t *testing.T) {
	srv, c, done := newTestDaemon(t, Config{})
	defer done()
	started := make(chan struct{})
	release := make(chan struct{})
	if _, err := srv.Registry().RegisterInterface("gate", drainGate(started, release)); err != nil {
		t.Fatal(err)
	}

	opts := core.EvalOptions{Mode: core.ModeExpected, EnumLimit: 16}
	type evalResult struct {
		d   energy.Dist
		err error
	}
	inflight := make(chan evalResult, 1)
	go func() {
		d, _, err := c.EvalCtx(context.Background(), "gate", "work", nil, opts)
		inflight <- evalResult{d, err}
	}()
	<-started // the evaluation is inside a method body

	// Before the drain, the readiness probe reports ready.
	hz, err := c.HealthzCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hz.Ready || hz.Draining {
		t.Fatalf("pre-drain healthz = %+v, want ready", hz)
	}

	srv.BeginDrain()
	// The drain state is observed through the typed readiness probe, not
	// by sacrificing an eval request: /v1/healthz stays live while the
	// daemon sheds.
	hz, err = c.HealthzCtx(context.Background())
	if err != nil {
		t.Fatalf("Healthz while draining: %v", err)
	}
	if hz.Ready || !hz.Draining {
		t.Fatalf("draining healthz = %+v, want ready=false draining=true", hz)
	}

	// New evaluations shed with 503 + Retry-After.
	_, _, err = c.EvalCtx(context.Background(), "gate", "work", nil, opts)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("eval while draining: err = %v, want 503 APIError", err)
	}
	if apiErr.RetryAfter != time.Second {
		t.Errorf("draining shed RetryAfter = %v, want 1s", apiErr.RetryAfter)
	}

	// Stats stays live during the drain and reports it.
	stats, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatalf("Stats while draining: %v", err)
	}
	if !stats.Draining || stats.InFlight != 1 || stats.ShedDraining == 0 {
		t.Errorf("stats = draining=%v in_flight=%d shed_draining=%d, want true/1/>0",
			stats.Draining, stats.InFlight, stats.ShedDraining)
	}

	// Drain cannot finish while the evaluation is running...
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); err == nil {
		t.Fatal("Drain returned nil with an evaluation in flight")
	}

	// ...but the in-flight evaluation completes normally once released.
	close(release)
	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight eval during drain: %v", r.err)
	}
	if r.d.Mean() != 1.5 { // mean of {1, 2} uniform
		t.Errorf("in-flight eval mean = %v, want 1.5", r.d.Mean())
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after release: %v", err)
	}
	if srv.InFlight() != 0 {
		t.Errorf("InFlight = %d after drain, want 0", srv.InFlight())
	}
}

// TestStatsAggregatesResilienceHeaders: the daemon folds client-reported
// attempt/hedge headers into /v1/stats, even when the request itself is
// rejected later in the handler.
func TestStatsAggregatesResilienceHeaders(t *testing.T) {
	srv := NewServer(Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(`{}`))
	req.Header.Set(headerAttempt, "3")
	req.Header.Set(headerHedge, "1")
	srv.ServeHTTP(httptest.NewRecorder(), req)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var stats StatsResponse
	if err := json.NewDecoder(rec.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.RetriedRequests != 1 || stats.RetryAttempts != 2 || stats.HedgedRequests != 1 {
		t.Errorf("stats = retried=%d attempts=%d hedged=%d, want 1/2/1",
			stats.RetriedRequests, stats.RetryAttempts, stats.HedgedRequests)
	}
}
