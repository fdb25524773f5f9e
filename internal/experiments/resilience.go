package experiments

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/faultsim"
)

// E13 is the resilience experiment: the serving path of E11 run through a
// hostile network. A fleet of retrying (half of them hedging) clients
// drives a Zipf trace through a fault-injecting transport
// (internal/faultsim) that resets connections before and after the
// forward, delays requests, hangs some until the per-attempt timeout, and
// answers bursts of synthetic 503s. Because evaluations are deterministic
// and idempotent, every answer that does arrive must be bit-identical to
// the fault-free reference — resilience must never change the numbers,
// only the delivery. Two probes complete the story: a cancellation probe
// shows a cancelled evaluation freeing its (only) worker slot long before
// the evaluation would have finished, and a drain probe walks the
// graceful-shutdown protocol while an evaluation is in flight.

// E13 trace shape.
const (
	e13Clients    = 6   // concurrent clients; odd indices hedge
	e13PerClient  = 30  // requests each client issues
	e13Distinct   = 16  // distinct request classes under the Zipf law
	e13ZipfS      = 1.2 // same popularity law as E11
	e13Samples    = 256 // Monte Carlo samples per trace evaluation
	e13Seed       = 11  // shared MC seed: same class => same answer
	e13HeavySize  = 1 << 17
	e13AttemptCap = 200 * time.Millisecond // per-attempt client timeout
)

// e13Plan is the fault profile the trace runs under. Roughly one request
// in four is disturbed; MaxAttempts=6 with these rates leaves the odds of
// a request exhausting its retries far below the 1% failure budget.
func e13Plan(seed int64) faultsim.Plan {
	return faultsim.Plan{
		Seed:       seed,
		PLatency:   0.10,
		Latency:    5 * time.Millisecond,
		PResetPre:  0.08,
		PResetPost: 0.05, // server did the work; answer lost — idempotency pays
		PHang:      0.02, // burns the per-attempt timeout
		P5xx:       0.06,
		Burst:      2,
	}
}

// E13Result is the faulted trace plus the cancellation and drain probes.
type E13Result struct {
	Offered     int     // trace requests issued
	Succeeded   int     // eventually answered 200
	Failed      int     // exhausted retries
	SuccessRate float64 // Succeeded / Offered
	Mismatches  int     // answers differing from the fault-free reference

	// Client-side resilience counters, summed over the fleet.
	Retries   uint64
	Hedges    uint64
	HedgeWins uint64
	ShedSeen  uint64

	// Faults the transport injected.
	InjResetsPre  uint64
	InjResetsPost uint64
	InjHangs      uint64
	Inj5xx        uint64

	// Server-side aggregation of the client-reported headers.
	SrvRetried uint64
	SrvHedged  uint64

	// Cancellation probe, counted in method bodies (see cancelCountProbe):
	// what an evaluation cancelled during its first body ran in all, and
	// what it runs uncancelled.
	CancelledBodies int64
	HeavyBodies     int64

	// Drain probe: with an evaluation in flight, BeginDrain must shed new
	// work with 503, let the in-flight answer complete, then settle.
	DrainOK           bool
	DrainShed         uint64
	InFlightCompleted bool
}

// Table renders E13.
func (r *E13Result) Table() *Table {
	t := &Table{
		ID:     "E13",
		Title:  "Resilient serving: retries, hedging, cancellation, drain",
		Header: []string{"probe", "offered", "succeeded", "failed", "mismatches", "outcome"},
		Rows: [][]string{
			{"faulted zipf trace", cell(r.Offered), cell(r.Succeeded), cell(r.Failed),
				cell(r.Mismatches), pct(r.SuccessRate)},
			{"cancel frees worker", "1", "1", "0", "0",
				fmt.Sprintf("%d of the evaluation's %d method bodies ran once cancelled", r.CancelledBodies, r.HeavyBodies)},
			{"graceful drain", "1", "1", "0", "0",
				fmt.Sprintf("shed %d while draining; in-flight completed", r.DrainShed)},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("injected faults: %d pre-forward resets, %d post-forward resets, %d hangs, %d synthetic 503s",
			r.InjResetsPre, r.InjResetsPost, r.InjHangs, r.Inj5xx),
		fmt.Sprintf("clients retried %d times (server saw %d retried requests), hedged %d (won %d), observed %d sheds",
			r.Retries, r.SrvRetried, r.Hedges, r.HedgeWins, r.ShedSeen),
		fmt.Sprintf("cancel, counted: %d of the evaluation's %d method bodies ran once it was cancelled during the first",
			r.CancelledBodies, r.HeavyBodies),
		"every delivered answer was bit-identical to the fault-free reference")
	return t
}

// retryPolicy is a faulted trace's client policy: fast and persistent, so
// the experiment finishes quickly while surviving multi-fault streaks.
func retryPolicy(attempts int, maxDelay time.Duration, seed int64) *eisvc.RetryPolicy {
	p := &eisvc.RetryPolicy{MaxAttempts: attempts, BaseDelay: 2 * time.Millisecond, MaxDelay: maxDelay}
	return p.Seed(seed)
}

// E13Resilience runs the faulted trace and the cancellation and drain
// probes.
func E13Resilience() (*E13Result, error) {
	res := &E13Result{}

	ref, err := fig1Reference(e13Distinct)
	if err != nil {
		return nil, err
	}

	// Faulted Zipf trace against a fresh daemon.
	_, base, shutdown, err := fig1Daemon(eisvc.Config{}, nil)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	transports := make([]*faultsim.Transport, e13Clients)
	tr, err := runTrace(traceSpec{
		clients: e13Clients, classes: e13Distinct, n: e13PerClient, s: e13ZipfS, seed: 2000,
		client: func(cl int) *eisvc.Client {
			c := eisvc.NewClient(base)
			c.ID = fmt.Sprintf("faulted-%d", cl)
			c.Timeout = e13AttemptCap
			c.Retry = retryPolicy(6, 40*time.Millisecond, int64(500+cl))
			if cl%2 == 1 {
				c.Hedge = 30 * time.Millisecond
			}
			transports[cl] = faultsim.NewTransport(e13Plan(int64(100+cl)), nil)
			c.SetTransport(transports[cl])
			return c
		},
		ask: e13Ask,
		ref: ref,
		// Exhausted retries on injected faults or shedding are the expected
		// failure shape; anything else is a bug.
		tolerate: func(err error) bool { return isShed(err) || isTransport(err) },
	})
	if err != nil {
		return nil, err
	}
	res.Offered, res.Succeeded, res.Failed, res.Mismatches = tr.offered, tr.succeeded, tr.failed, tr.mismatched
	res.Retries, res.Hedges = tr.counters.Retries, tr.counters.Hedges
	res.HedgeWins, res.ShedSeen = tr.counters.HedgeWins, tr.counters.Shed
	for _, tr := range transports {
		cs := tr.Counters()
		res.InjResetsPre += cs.ResetsPre
		res.InjResetsPost += cs.ResetsPos
		res.InjHangs += cs.Hangs
		res.Inj5xx += cs.Synth5xx
	}
	if res.Offered > 0 {
		res.SuccessRate = float64(res.Succeeded) / float64(res.Offered)
	}
	st, err := eisvc.NewClient(base).StatsCtx(context.Background())
	if err != nil {
		return nil, err
	}
	res.SrvRetried = st.RetriedRequests
	res.SrvHedged = st.HedgedRequests

	if err := res.cancelCountProbe(); err != nil {
		return nil, err
	}
	return res, res.drainProbe()
}

// e13Ask is the E13 stack's request: class k under the shared seed, so
// the same class always has the same answer.
var e13Ask = handleAsk(0, core.MonteCarlo(e13Samples, e13Seed))

// fig1Reference answers e13Ask's first classes on a fault-free daemon of
// its own, so a faulted trace's comparison crosses processes-worth of
// state rather than reading the serving daemon's own memo back.
func fig1Reference(classes int) ([]energy.Dist, error) {
	_, base, shutdown, err := fig1Daemon(eisvc.Config{}, nil)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	ref, err := runTrace(traceSpec{clients: 1, classes: classes, sweep: true,
		client: func(int) *eisvc.Client { return eisvc.NewClient(base) }, ask: e13Ask})
	if err != nil {
		return nil, fmt.Errorf("fault-free reference: %w", err)
	}
	return ref.first, nil
}

// isTransport reports whether err is a transport-level failure (reset,
// timeout, EOF) rather than an experiment bug; those are expected under
// fault injection when retries run out.
func isTransport(err error) bool {
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return true
	}
	var netErr net.Error
	return errors.As(err, &netErr) || errors.Is(err, faultsim.ErrInjectedReset)
}

// cancelCountProbe shows a cancelled evaluation freeing the daemon's only
// worker, counted in method bodies so a test can assert it. A one-worker daemon serves an
// interface whose body counts its runs and waits at a gate. The cancelled
// evaluation goes first: its first body is held at the gate until the
// server has seen the client go away, so the cancel always lands
// mid-evaluation; then the gate opens for good and the same evaluation
// runs again, uncancelled. EnumLimit 1 keeps Monte Carlo on the
// per-sample path: one body per sample.
func (r *E13Result) cancelCountProbe() error {
	var bodies atomic.Int64
	var firstBody, firstRequest sync.Once
	started, gate := make(chan struct{}), make(chan struct{})
	gone, finished := make(chan struct{}), make(chan struct{})
	iface := core.New("cancel_gate").
		MustECV(core.BoolECV("hit", 0.5, "")).
		MustMethod(core.Method{Name: "work", Body: func(c *core.Call) energy.Joules {
			bodies.Add(1)
			firstBody.Do(func() { close(started) })
			<-gate
			if c.ECVBool("hit") {
				return 1
			}
			return 2
		}})
	srv := eisvc.NewServer(eisvc.Config{Workers: 1, NoMemo: true, NoLayerCache: true})
	if _, err := srv.Registry().RegisterInterface(iface.Name(), iface); err != nil {
		return err
	}
	// The first request is the one to be cancelled: report when the server
	// sees its client gone and when its handler has returned.
	base, stop, err := eisvc.ServeLoopback(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		first := false
		firstRequest.Do(func() { first = true })
		if first {
			go func() {
				<-req.Context().Done()
				close(gone)
			}()
			defer close(finished)
		}
		srv.ServeHTTP(w, req)
	}))
	if err != nil {
		return err
	}
	defer stop()
	c := eisvc.NewClient(base)
	c.ID = "probe-count"
	c.Timeout = -1
	opts := core.MonteCarlo(e13Samples, e13Seed)
	opts.EnumLimit, opts.Parallelism = 1, 1

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.EvalCtx(ctx, iface.Name(), "work", nil, opts)
		errc <- err
	}()
	openGate := sync.OnceFunc(func() { close(gate) })
	defer openGate() // on an early return too: stop must not wait on a held body
	await := func(ch <-chan struct{}, what string) error {
		select {
		case <-ch:
			return nil
		case <-time.After(time.Minute):
			return fmt.Errorf("cancel count probe: %s: still waiting after a minute", what)
		}
	}
	if err := await(started, "first body"); err != nil {
		return err
	}
	cancel()
	if err := await(gone, "server seeing the cancel"); err != nil {
		return err
	}
	openGate()
	if err := <-errc; err == nil {
		return errors.New("cancel count probe: cancelled evaluation succeeded")
	}
	if err := await(finished, "cancelled handler returning"); err != nil {
		return err
	}
	r.CancelledBodies = bodies.Load()
	if _, _, err := c.EvalCtx(context.Background(), iface.Name(), "work", nil, opts); err != nil {
		return fmt.Errorf("cancel count probe: uncancelled run: %w", err)
	}
	r.HeavyBodies = bodies.Load() - r.CancelledBodies
	return nil
}

// drainProbe walks the graceful-shutdown protocol with work in flight.
func (r *E13Result) drainProbe() error {
	srv, base, shutdown, err := fig1Daemon(eisvc.Config{NoMemo: true, NoLayerCache: true}, nil)
	if err != nil {
		return err
	}
	defer shutdown()
	heavyOpts := core.MonteCarlo(e13HeavySize, e13Seed)
	heavyOpts.Parallelism = 1

	inflight := make(chan error, 1)
	send := func() {
		c := eisvc.NewClient(base)
		c.ID = "drain-inflight"
		c.Timeout = -1 // must complete however slow the machine; the probe waits
		_, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", e11Request(0), heavyOpts)
		inflight <- err
	}
	go send()
	// Wait until the evaluation is admitted. It can be admitted and done
	// between two polls (at GOMAXPROCS=1 the poller may not run until it
	// ends), and then it is sent again: the drain needs work in flight.
	for srv.InFlight() == 0 {
		select {
		case err := <-inflight:
			if err != nil {
				return fmt.Errorf("drain probe: evaluation failed before the drain: %w", err)
			}
			go send()
		default:
			time.Sleep(time.Millisecond)
		}
	}
	srv.BeginDrain()

	// New work sheds with 503 while the daemon drains.
	_, _, err = eisvc.NewClient(base).EvalCtx(context.Background(), "ml_webservice", "handle",
		e11Request(1), core.MonteCarlo(e13Samples, e13Seed))
	var apiErr *eisvc.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		return fmt.Errorf("drain probe: eval while draining returned %v, want 503", err)
	}

	// The in-flight evaluation completes, then the drain settles.
	if err := <-inflight; err != nil {
		return fmt.Errorf("drain probe: in-flight evaluation failed: %w", err)
	}
	r.InFlightCompleted = true
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		return fmt.Errorf("drain probe: %w", err)
	}
	st, err := eisvc.NewClient(base).StatsCtx(context.Background())
	if err != nil {
		return err
	}
	r.DrainShed = st.ShedDraining
	r.DrainOK = st.Draining && st.InFlight == 0 && r.DrainShed >= 1
	if !r.DrainOK {
		return fmt.Errorf("drain probe: stats draining=%v in_flight=%d shed_draining=%d",
			st.Draining, st.InFlight, st.ShedDraining)
	}
	return nil
}
