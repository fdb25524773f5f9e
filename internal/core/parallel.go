package core

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the worker-pool plumbing shared by the parallel
// evaluation paths (the Monte Carlo shards, evalPoints). Evaluation fans
// out over fixed-size units of work (RNG shards, chunks of points); the
// decomposition into units is a function of the options alone — never of
// the worker count — so results are bit-identical at any parallelism.

// evalGroup coordinates first-error-wins cancellation across workers:
// the first worker to fail records its error and flips the stop flag;
// every other worker checks the flag between samples and bails promptly
// instead of completing its remaining work. External cancellation (an
// abandoned request's context) feeds the same flag, so a cancelled Eval
// releases its workers within one sample, not one shard.
type evalGroup struct {
	stop atomic.Bool
	done <-chan struct{} // caller ctx.Done(); nil when uncancellable
	mu   sync.Mutex
	err  error
}

// cancelled reports whether some worker has already failed or the caller's
// context is done. The context check is a non-blocking channel poll, cheap
// enough to run between individual samples.
func (g *evalGroup) cancelled() bool {
	if g.stop.Load() {
		return true
	}
	select {
	case <-g.done:
		g.stop.Store(true)
		return true
	default:
		return false
	}
}

// fail records err if it is the first failure and requests cancellation.
func (g *evalGroup) fail(err error) {
	if err == nil {
		return
	}
	g.mu.Lock()
	if g.err == nil {
		g.err = err
	}
	g.mu.Unlock()
	g.stop.Store(true)
}

// runUnits runs fn(unit, g) for every unit in [0, n) across at most par
// goroutines. Units are handed out through an atomic counter (dynamic
// load balancing); fn must write its results keyed by unit index so the
// schedule cannot affect the outcome. par <= 1 runs everything inline on
// the calling goroutine — the sequential reference path, with no pool.
// The first error returned by fn cancels the remaining units; runUnits
// returns that error. Cancelling ctx likewise stops the remaining units
// promptly (workers poll between samples) and returns ctx.Err().
func runUnits(ctx context.Context, n, par int, fn func(unit int, g *evalGroup) error) error {
	g := &evalGroup{done: ctx.Done()}
	if par > n {
		par = n
	}
	if par <= 1 {
		for u := 0; u < n; u++ {
			if g.cancelled() {
				break
			}
			if err := fn(u, g); err != nil {
				g.fail(err)
				break
			}
		}
		return g.errOr(ctx)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				u := int(next.Add(1) - 1)
				if u >= n || g.cancelled() {
					return
				}
				if err := fn(u, g); err != nil {
					g.fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return g.errOr(ctx)
}

// errOr resolves the group outcome: a worker error wins (it caused the
// stop), otherwise a context cancellation surfaces as ctx.Err().
func (g *evalGroup) errOr(ctx context.Context) error {
	if g.err != nil {
		return g.err
	}
	return ctx.Err()
}

// parallelism resolves the EvalOptions.Parallelism field: 0 (or negative)
// means one worker per available CPU; 1 is the sequential reference path.
func (o EvalOptions) parallelism() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// shardSeed derives the RNG seed of one Monte Carlo shard from the user
// seed and the shard index via a splitmix64-style mix. Each shard owns an
// independent deterministic stream, so the full sample set depends only on
// (Seed, Samples) — not on how shards are scheduled across workers.
func shardSeed(seed int64, shard int) int64 {
	z := uint64(seed) + (uint64(shard)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// rngPool recycles the per-shard generators: a rand.Rand carries a 4.9 KB
// source, and an evaluation seeds one per 64 samples.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// valsPool recycles the free-ECV vectors compiled programs run on, one per
// chunk of points or shard. borrowVals returns one cleared, of length n.
var valsPool = sync.Pool{New: func() any { return new([]Value) }}

func borrowVals(n int) *[]Value {
	p := valsPool.Get().(*[]Value)
	if cap(*p) < n {
		*p = make([]Value, n)
	}
	*p = (*p)[:n]
	clear(*p)
	return p
}

// borrowRNG returns a generator positioned at the start of seed's stream —
// the stream rand.New(rand.NewSource(seed)) yields, since Seed resets the
// whole source state. Hand it back with rngPool.Put.
func borrowRNG(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}
