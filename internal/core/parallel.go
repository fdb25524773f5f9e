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

// units is the work of one runUnits call: runUnit runs one unit and writes
// its results keyed by the unit's index, so the schedule cannot affect the
// outcome. Implementations are methods on pooled per-Eval state (evalRun),
// so handing one to runUnits allocates nothing.
type units interface {
	runUnit(unit int, g *evalGroup) error
}

// unitJob is the state one runUnits call shares with its helpers: the
// group, the counter units are handed out through, and the helpers' wait.
// Jobs are pooled, so a call allocates nothing of its own.
type unitJob struct {
	evalGroup
	units units
	n     int
	next  atomic.Int64
	wg    sync.WaitGroup
}

var jobPool = sync.Pool{New: func() any { return new(unitJob) }}

// helperJobs hands each helper runUnits starts a job: whichever is first in
// line, and every job sent has a helper started for it, so no call waits on
// a busy helper. The buffer lets a caller go to work without waiting for
// its helpers to be scheduled; 64 holds every helper of an Eval at up to
// 65 workers, and past it a send waits only for helpers already started.
var helperJobs = make(chan *unitJob, 64)

// helper is a static function, so starting one allocates nothing.
func helper() {
	j := <-helperJobs
	j.work()
	j.wg.Done()
}

// work runs units until they run out or the group stops.
func (j *unitJob) work() {
	for {
		u := int(j.next.Add(1) - 1)
		if u >= j.n || j.cancelled() {
			return
		}
		if err := j.units.runUnit(u, &j.evalGroup); err != nil {
			j.fail(err)
			return
		}
	}
}

// runUnits runs every unit in [0, n) of fn across at most par goroutines:
// the caller and up to par-1 helpers it starts. Units are handed out
// through an atomic counter (dynamic load balancing). par <= 1 runs
// everything on the calling goroutine — the sequential reference path.
// The first error returned by a unit cancels the remaining units; runUnits
// returns that error. Cancelling ctx likewise stops the remaining units
// promptly (workers poll between samples) and returns ctx.Err().
func runUnits(ctx context.Context, n, par int, fn units) error {
	j := jobPool.Get().(*unitJob)
	j.stop.Store(false)
	j.done, j.err, j.units, j.n = ctx.Done(), nil, fn, n
	j.next.Store(0)
	for w := 1; w < min(par, n); w++ {
		j.wg.Add(1)
		helperJobs <- j
		go helper()
	}
	j.work()
	j.wg.Wait()
	err := j.errOr(ctx)
	j.units, j.done, j.err = nil, nil, nil
	jobPool.Put(j)
	return err
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

// borrowRNG returns a generator positioned at the start of seed's stream —
// the stream rand.New(rand.NewSource(seed)) yields, since Seed resets the
// whole source state. Hand it back with rngPool.Put.
func borrowRNG(seed int64) *rand.Rand {
	rng := rngPool.Get().(*rand.Rand)
	rng.Seed(seed)
	return rng
}
