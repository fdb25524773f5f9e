package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
)

// traceSpec is the client traffic of one serving experiment: clients
// concurrent clients, each sending its round-robin share of a sweep over
// the classes (when sweep is set), then n Zipf(s) draws over the classes
// from its own seed, seed+cl. A pure sweep leaves n at 0; a pure Zipf
// trace leaves sweep unset.
type traceSpec struct {
	clients, classes int
	sweep            bool
	n                int
	s                float64
	seed             int64

	// client builds client cl (ID, Timeout, Retry, Hedge, Deadline,
	// transport). It is called for every client before any request is sent.
	client func(cl int) *eisvc.Client
	// ask sends class k.
	ask func(ctx context.Context, c *eisvc.Client, k int) (energy.Dist, *eisvc.EvalResponse, error)
	// ref, when set, is the answer every class must match bit for bit.
	ref []energy.Dist
	// tolerate reports an error the experiment expects (a shed, an injected
	// fault): it is counted as failed and the client goes on. Any other
	// error stops its client and is returned.
	tolerate func(error) bool
	// hook, when set, runs before each request with its 1-based start
	// number across all clients.
	hook func(n int)
}

// tally is what runTrace counted.
type tally struct {
	offered, succeeded, failed, mismatched int
	cached                                 int            // answered from the memo or a peer's cache
	counters                               eisvc.Counters // the clients' resilience counters, summed
	first                                  []energy.Dist  // the first answer per class
	coldMs, hitMs                          []float64      // client-observed latency of cold and cached answers
	wall                                   time.Duration
}

// sequence is client cl's classes in the order it asks them.
func (t *traceSpec) sequence(cl int) []int {
	var ks []int
	for k := cl; t.sweep && k < t.classes; k += t.clients {
		ks = append(ks, k)
	}
	if t.n > 0 {
		zipf := rand.NewZipf(rand.New(rand.NewSource(t.seed+int64(cl))), t.s, 1, uint64(t.classes-1))
		for range t.n {
			ks = append(ks, int(zipf.Uint64()))
		}
	}
	return ks
}

// runTrace sends t's requests and counts what came back. Its clients run
// concurrently, one goroutine each: the concurrency is the experiment.
func runTrace(t traceSpec) (*tally, error) {
	clients := make([]*eisvc.Client, t.clients)
	for cl := range clients {
		clients[cl] = t.client(cl)
	}
	res := &tally{first: make([]energy.Dist, t.classes)}
	var (
		mu       sync.Mutex
		started  atomic.Int64
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for cl, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, k := range t.sequence(cl) {
				if t.hook != nil {
					t.hook(int(started.Add(1)))
				}
				t0 := time.Now()
				d, resp, err := t.ask(context.Background(), c, k)
				ms := float64(time.Since(t0)) / float64(time.Millisecond)
				mu.Lock()
				res.offered++
				switch {
				case err != nil:
					res.failed++
				case resp.Cached || resp.Peer:
					res.cached++
					res.hitMs = append(res.hitMs, ms)
				default:
					res.coldMs = append(res.coldMs, ms)
				}
				if err == nil {
					res.succeeded++
					if t.ref != nil && !d.Equal(t.ref[k], 0) {
						res.mismatched++
					}
					if res.first[k].IsZero() {
						res.first[k] = d
					}
				}
				stop := err != nil && (t.tolerate == nil || !t.tolerate(err))
				if stop && firstErr == nil {
					firstErr = fmt.Errorf("client %d, class %d: %w", cl, k, err)
				}
				mu.Unlock()
				if stop {
					return
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	for _, c := range clients {
		cs := c.Counters()
		res.counters.Retries += cs.Retries
		res.counters.Hedges += cs.Hedges
		res.counters.HedgeWins += cs.HedgeWins
		res.counters.Shed += cs.Shed
	}
	return res, firstErr
}
