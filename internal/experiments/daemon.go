package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/nn"
)

// E11 is the daemon-serving experiment: the Fig. 1 mlservice stack is
// registered with the eid daemon (internal/eisvc) and queried over real
// loopback HTTP by a fleet of concurrent clients whose requests follow a
// Zipf popularity law — the shape of real inference traffic, where a few
// request classes dominate. Because Interface.Eval is deterministic for
// fixed options, the daemon's memo cache answers repeated classes without
// re-evaluating; the experiment measures the resulting hit rate and the
// joules the energy ledger attributes per client. A second phase points a
// burst of distinct (uncacheable) requests at a deliberately tiny daemon
// (one worker, queue of two) to show admission control shedding load with
// 429/503 instead of queueing without bound.

// E11 trace shape.
const (
	e11Clients    = 8   // concurrent clients
	e11PerClient  = 40  // requests each client issues
	e11Distinct   = 24  // distinct request classes under the Zipf law
	e11ZipfS      = 1.2 // Zipf exponent (s > 1: heavy head)
	e11Samples    = 512 // Monte Carlo samples per evaluation
	e11Seed       = 7   // shared MC seed: same class ⇒ same memo key
	e11BurstN     = 16  // overload-phase burst size (all distinct)
	e11BurstWait  = 100 * time.Millisecond
	e11BasePixels = 640 * 480
)

// E11Result is the serving trace plus the overload burst.
type E11Result struct {
	Requests    uint64 // phase-1 eval requests that returned 200
	MemoHits    uint64 // answered from the memo cache
	Evaluations uint64 // actual Interface.Eval runs behind the misses
	HitRate     float64
	ColdMeanMs  float64 // client-observed mean latency, memo misses
	HitMeanMs   float64 // client-observed mean latency, memo hits
	AttribJ     float64 // expected joules the ledger attributed, all clients
	ClientsSeen int     // distinct clients in the ledger

	Offered       int // overload-phase burst size
	Served        int // burst requests answered 200
	ShedQueueFull uint64
	ShedDeadline  uint64
}

// Shed is the total overload-phase requests refused under load.
func (r *E11Result) Shed() uint64 { return r.ShedQueueFull + r.ShedDeadline }

// Table renders E11.
func (r *E11Result) Table() *Table {
	t := &Table{
		ID:     "E11",
		Title:  "Daemon serving: memoized evaluation and admission control",
		Header: []string{"phase", "requests", "memo hits", "evaluations", "shed", "hit rate"},
		Rows: [][]string{
			{"zipf trace", cell(r.Requests), cell(r.MemoHits), cell(r.Evaluations),
				"0", pct(r.HitRate)},
			{"overload burst", cell(r.Served), "0", cell(r.Served),
				cell(r.Shed()), "0.00%"},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d clients x %d requests over %d Zipf(s=%.1f) classes; miss %.2f ms vs hit %.2f ms client-observed",
			e11Clients, e11PerClient, e11Distinct, e11ZipfS, r.ColdMeanMs, r.HitMeanMs),
		fmt.Sprintf("ledger attributed %.4g J (expected) across %d clients", r.AttribJ, r.ClientsSeen),
		fmt.Sprintf("burst of %d distinct requests at 1 worker/queue 2: %d served, %d shed with 429, %d with 503",
			r.Offered, r.Served, r.ShedQueueFull, r.ShedDeadline))
	return t
}

// fig1Daemon starts an eisvc daemon on a loopback port with the calibrated
// Fig. 1 cnn_forward seeded and the paper-verbatim mlservice source
// registered over the wire. A non-nil gate holds every cnn_forward body
// until it is closed. It returns the server handle too, for E13's drain
// probe. Callers must call the returned shutdown func.
func fig1Daemon(cfg eisvc.Config, gate chan struct{}) (srv *eisvc.Server, base string, shutdown func(), err error) {
	cnn, err := fig1CNN()
	if err != nil {
		return nil, "", nil, err
	}
	if gate != nil {
		cnn = core.New("cnn_forward").MustBind("cnn", cnn).MustMethod(core.Method{
			Name: "forward", Params: []string{"pixels", "zeros"},
			Body: func(c *core.Call) energy.Joules {
				<-gate
				return c.E("cnn", "forward", core.Num(c.Num(0)), core.Num(c.Num(1)))
			}})
	}
	srv = eisvc.NewServer(cfg)
	if _, err := srv.Registry().RegisterInterface("cnn_forward", cnn); err != nil {
		return nil, "", nil, err
	}
	base, shutdown, err = eisvc.ServeLoopback(srv)
	if err != nil {
		return nil, "", nil, err
	}
	if _, err := eisvc.NewClient(base).RegisterCtx(context.Background(), mlservice.Fig1EIL); err != nil {
		shutdown()
		return nil, "", nil, err
	}
	return srv, base, shutdown, nil
}

// fig1CNN is the Fig. 1 cnn_forward on the calibrated RTX 4090: the
// native interface the mlservice source uses, for a daemon or a fleet.
func fig1CNN() (*core.Interface, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	return nn.CNNEnergyInterface(nn.Fig1CNN(), rig.Spec, rig.Coef.HardwareInterface())
}

// e11Request builds request class k: the Fig. 1 record shape with a
// class-dependent activation sparsity.
func e11Request(k int) []core.Value {
	return []core.Value{core.Record(map[string]core.Value{
		"image":  core.Num(float64(k)),
		"pixels": core.Num(e11BasePixels),
		"zeros":  core.Num(float64(1000 * (k + 1))),
	})}
}

// handleAsk asks ml_webservice.handle for request class offset+k.
func handleAsk(offset int, opts core.EvalOptions) func(context.Context, *eisvc.Client, int) (energy.Dist, *eisvc.EvalResponse, error) {
	return func(ctx context.Context, c *eisvc.Client, k int) (energy.Dist, *eisvc.EvalResponse, error) {
		return c.EvalCtx(ctx, "ml_webservice", "handle", e11Request(offset+k), opts)
	}
}

// isShed reports a 429 or 503 load-shedding answer.
func isShed(err error) bool {
	var apiErr *eisvc.APIError
	return errors.As(err, &apiErr) && apiErr.Shed()
}

// E11DaemonServing runs the Zipf serving trace and the overload burst.
func E11DaemonServing() (*E11Result, error) {
	// Phase 1: Zipf trace against a full-size daemon.
	_, base, shutdown, err := fig1Daemon(eisvc.Config{}, nil)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	tr, err := runTrace(traceSpec{
		clients: e11Clients, classes: e11Distinct, n: e11PerClient, s: e11ZipfS, seed: 1000,
		client: func(cl int) *eisvc.Client {
			c := eisvc.NewClient(base)
			c.ID = fmt.Sprintf("client-%d", cl)
			return c
		},
		ask: handleAsk(0, core.MonteCarlo(e11Samples, e11Seed)),
	})
	if err != nil {
		return nil, err
	}
	st, err := eisvc.NewClient(base).StatsCtx(context.Background())
	if err != nil {
		return nil, err
	}
	res := &E11Result{
		Requests: st.EvalRequests, MemoHits: st.MemoHits, Evaluations: st.Evaluations,
		HitRate: st.MemoHitRate, AttribJ: st.AttribJ, ClientsSeen: len(st.Clients),
		ColdMeanMs: meanOf(tr.coldMs), HitMeanMs: meanOf(tr.hitMs),
	}

	// Phase 2: distinct-request burst against a deliberately tiny daemon
	// (one worker, a queue of two). Every request is a fresh class, so the
	// memo cannot help. The one admitted evaluation is held at a gate
	// until the other fifteen are shed: two wait out their deadline in the
	// queue (503), the rest find it full (429). The counts are exact, not
	// a race against how fast the host drains the queue.
	gate := make(chan struct{})
	_, base, shutdown, err = fig1Daemon(eisvc.Config{Workers: 1, QueueLimit: 2, NoLayerCache: true}, gate)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	go func() { // ends once the gate opens, or once the daemon is gone
		defer close(gate)
		sc := eisvc.NewClient(base)
		for end := time.Now().Add(time.Minute); time.Now().Before(end); time.Sleep(time.Millisecond) {
			st, err := sc.StatsCtx(context.Background())
			if err != nil || st.ShedQueueFull+st.ShedDeadline == e11BurstN-1 {
				return
			}
		}
	}()
	tr, err = runTrace(traceSpec{
		clients: e11BurstN, classes: e11BurstN, sweep: true,
		client: func(i int) *eisvc.Client {
			c := eisvc.NewClient(base)
			c.ID = fmt.Sprintf("burst-%d", i)
			c.Deadline = e11BurstWait
			return c
		},
		// Classes beyond the phase-1 set, all distinct: guaranteed cold.
		ask:      handleAsk(e11Distinct, core.MonteCarlo(2*e11Samples, e11Seed)),
		tolerate: isShed,
	})
	if err != nil {
		return nil, err
	}
	st, err = eisvc.NewClient(base).StatsCtx(context.Background())
	if err != nil {
		return nil, err
	}
	res.Offered, res.Served = tr.offered, tr.succeeded
	res.ShedQueueFull, res.ShedDeadline = st.ShedQueueFull, st.ShedDeadline
	return res, nil
}
