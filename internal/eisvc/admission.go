package eisvc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/cache"
	"energyclarity/internal/counters"
)

// Shedding errors; the HTTP layer maps them to 429 and 503.
var (
	// ErrQueueFull means the wait queue was already at its depth limit
	// when the request arrived; the request was rejected immediately.
	ErrQueueFull = errors.New("eisvc: admission queue full")
	// ErrDeadline means the request waited in the queue but no worker
	// slot freed up before its deadline.
	ErrDeadline = errors.New("eisvc: deadline expired waiting for a worker")
)

// admission is the daemon's load-shedding gate: a semaphore of worker
// slots plus a bounded wait queue. A burst of worst-case enumerations
// occupies at most `workers` goroutines; at most `queueLimit` further
// requests wait (each bounded by its deadline); everything beyond that is
// shed immediately. This keeps the daemon responsive — a memo hit or a
// /v1/stats scrape never sits behind a convoy of heavy evaluations.
type admission struct {
	counts     admissionCounters // first, to be 64-bit aligned
	slots      chan struct{}
	queueLimit int

	mu     sync.Mutex
	queued int
	peak   int
}

// admissionCounters are the gate's counters (a counters set): every
// acquire is exactly one of them.
type admissionCounters struct {
	ShedQueueFull uint64
	ShedDeadline  uint64
	Granted       uint64
}

func newAdmission(workers, queueLimit int) *admission {
	return &admission{
		slots:      make(chan struct{}, workers),
		queueLimit: queueLimit,
	}
}

// acquire claims a worker slot, which release frees, waiting until ctx is
// done at most: ErrQueueFull if the queue was at its limit, ErrDeadline if
// ctx expired while waiting.
func (a *admission) acquire(ctx context.Context) error { return a.admit(ctx, time.Time{}) }

// admit is acquire bounded by deadline as well (the zero deadline: ctx
// alone). A request that finds a slot free takes it without a timer; only
// one that must wait behind a full gate makes one (cache.Until).
func (a *admission) admit(ctx context.Context, deadline time.Time) error {
	a.mu.Lock()
	if a.queued >= a.queueLimit {
		a.mu.Unlock()
		atomic.AddUint64(&a.counts.ShedQueueFull, 1)
		return ErrQueueFull
	}
	a.queued++
	if a.queued > a.peak {
		a.peak = a.queued
	}
	a.mu.Unlock()

	defer func() {
		a.mu.Lock()
		a.queued--
		a.mu.Unlock()
	}()

	// An already-expired request must never win a slot: when ctx is done
	// AND a slot is free, select picks a case at random, so without these
	// checks an expired request could still be granted and run. Check
	// before trying for a slot, and re-check after waiting for one (the
	// context may have expired while both cases were ready).
	if ctx.Err() != nil || !deadline.IsZero() && !time.Now().Before(deadline) {
		atomic.AddUint64(&a.counts.ShedDeadline, 1)
		return ErrDeadline
	}
	select {
	case a.slots <- struct{}{}:
		atomic.AddUint64(&a.counts.Granted, 1)
		return nil
	default:
	}
	ctx, cancel := cache.Until(ctx, deadline)
	defer cancel()
	select {
	case a.slots <- struct{}{}:
		if ctx.Err() != nil {
			<-a.slots
			atomic.AddUint64(&a.counts.ShedDeadline, 1)
			return ErrDeadline
		}
		atomic.AddUint64(&a.counts.Granted, 1)
		return nil
	case <-ctx.Done():
		atomic.AddUint64(&a.counts.ShedDeadline, 1)
		return ErrDeadline
	}
}

// release frees the worker slot a successful acquire claimed.
func (a *admission) release() { <-a.slots }

// depth returns the current and peak number of requests in the gate
// (waiting or holding a slot).
func (a *admission) depth() (current, peak int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued, a.peak
}

// read returns a snapshot of the gate's counters.
func (a *admission) read() (snap admissionCounters) {
	counters.Add(&snap, &a.counts)
	return snap
}
