package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
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
// registered over the wire. It returns the server handle too, for E13's
// drain probe. Callers must call the returned shutdown func.
func fig1Daemon(cfg eisvc.Config) (srv *eisvc.Server, base string, shutdown func(), err error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, "", nil, err
	}
	cnn, err := nn.CNNEnergyInterface(nn.Fig1CNN(), rig.Spec, rig.Coef.HardwareInterface())
	if err != nil {
		return nil, "", nil, err
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

// e11Request builds request class k: the Fig. 1 record shape with a
// class-dependent activation sparsity.
func e11Request(k int) []core.Value {
	return []core.Value{core.Record(map[string]core.Value{
		"image":  core.Num(float64(k)),
		"pixels": core.Num(e11BasePixels),
		"zeros":  core.Num(float64(1000 * (k + 1))),
	})}
}

// E11DaemonServing runs the Zipf serving trace and the overload burst.
func E11DaemonServing() (*E11Result, error) {
	res := &E11Result{}

	// Phase 1: Zipf trace against a full-size daemon.
	_, base, shutdown, err := fig1Daemon(eisvc.Config{})
	if err != nil {
		return nil, err
	}
	var (
		mu            sync.Mutex
		coldMs, hitMs float64
		coldN, hitN   uint64
		firstErr      error
		wg            sync.WaitGroup
	)
	for cl := 0; cl < e11Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := eisvc.NewClient(base)
			c.ID = fmt.Sprintf("client-%d", cl)
			// Per-client deterministic trace over the shared class set.
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(1000+cl))),
				e11ZipfS, 1, e11Distinct-1)
			for i := 0; i < e11PerClient; i++ {
				args := e11Request(int(zipf.Uint64()))
				start := time.Now()
				_, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args,
					core.MonteCarlo(e11Samples, e11Seed))
				ms := float64(time.Since(start)) / float64(time.Millisecond)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if err == nil {
					if resp.Cached {
						hitMs += ms
						hitN++
					} else {
						coldMs += ms
						coldN++
					}
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	if firstErr != nil {
		shutdown()
		return nil, firstErr
	}
	st, err := eisvc.NewClient(base).StatsCtx(context.Background())
	shutdown()
	if err != nil {
		return nil, err
	}
	res.Requests = st.EvalRequests
	res.MemoHits = st.MemoHits
	res.Evaluations = st.Evaluations
	res.HitRate = st.MemoHitRate
	res.AttribJ = st.AttribJ
	res.ClientsSeen = len(st.Clients)
	if coldN > 0 {
		res.ColdMeanMs = coldMs / float64(coldN)
	}
	if hitN > 0 {
		res.HitMeanMs = hitMs / float64(hitN)
	}

	// Phase 2: distinct-request burst against a deliberately tiny daemon.
	// Every request is a fresh class, so the memo cannot help, and the
	// layer cache is disabled so every evaluation pays full cost (this
	// phase demonstrates admission control, not caching — E12 covers
	// that); with one worker and a queue of two, admission control must
	// shed the rest.
	_, base, shutdown, err = fig1Daemon(eisvc.Config{Workers: 1, QueueLimit: 2, NoLayerCache: true})
	if err != nil {
		return nil, err
	}
	defer shutdown()
	var (
		served int
		start  = make(chan struct{})
		bwg    sync.WaitGroup
	)
	firstErr = nil
	for i := 0; i < e11BurstN; i++ {
		bwg.Add(1)
		go func(i int) {
			defer bwg.Done()
			c := eisvc.NewClient(base)
			c.ID = fmt.Sprintf("burst-%d", i)
			c.Deadline = e11BurstWait
			<-start
			// Classes beyond the phase-1 set, all distinct: guaranteed cold.
			_, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle",
				e11Request(e11Distinct+i), core.MonteCarlo(2*e11Samples, e11Seed))
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				served++
				return
			}
			var apiErr *eisvc.APIError
			if !errors.As(err, &apiErr) || !apiErr.Shed() {
				if firstErr == nil {
					firstErr = err
				}
			}
		}(i)
	}
	close(start)
	bwg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	st, err = eisvc.NewClient(base).StatsCtx(context.Background())
	if err != nil {
		return nil, err
	}
	res.Offered = e11BurstN
	res.Served = served
	res.ShedQueueFull = st.ShedQueueFull
	res.ShedDeadline = st.ShedDeadline
	return res, nil
}
