package cache

import (
	"context"
	"sync"
	"time"
)

// Flight coalesces concurrent duplicate work: when several goroutines call
// Do with the same key at the same time, exactly one of them (the leader)
// runs fn; the rest block until the leader finishes and then share its
// result. This is the classic singleflight discipline, here generic over
// the result type and context-aware so a waiter's deadline still holds
// while a slow leader runs.
//
// The zero Flight is ready to use.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]
}

type flightCall[V any] struct {
	// done, made by the first follower under the Flight's lock, is closed
	// when val/err are final; an uncontended call never makes it.
	done chan struct{}
	val  V
	err  error
}

// Do runs fn for key, coalescing with any in-flight call for the same key.
// It returns fn's result and shared=false on the leader, or the leader's
// result and shared=true on a follower. A follower whose ctx is done, or
// whose deadline passes (the zero deadline: ctx alone), before the leader
// finishes returns that context error (the leader keeps running; its
// result still reaches the other waiters). Only a follower makes a timer
// for the deadline. Errors are returned to every waiter and never
// retained: the next Do after completion starts a fresh flight.
func (f *Flight[V]) Do(ctx context.Context, deadline time.Time, key string, fn func() (V, error)) (val V, shared bool, err error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		if c.done == nil {
			c.done = make(chan struct{})
		}
		done := c.done
		f.mu.Unlock()
		ctx, cancel := Until(ctx, deadline)
		defer cancel()
		select {
		case <-done:
			return c.val, true, c.err
		case <-ctx.Done():
			var zero V
			return zero, true, ctx.Err()
		}
	}
	c := &flightCall[V]{}
	f.calls[key] = c
	f.mu.Unlock()

	c.val, c.err = fn()

	// Once the call is out of the map no follower can find it, so done is
	// final here: nil if none came.
	f.mu.Lock()
	delete(f.calls, key)
	done := c.done
	f.mu.Unlock()
	if done != nil {
		close(done)
	}
	return c.val, false, c.err
}

// InFlight reports the number of keys with a call currently running;
// exposed for tests and stats.
func (f *Flight[V]) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.calls)
}

// Until bounds ctx by deadline as well, for a waiter about to block; the
// zero deadline leaves ctx as it is. A deadline travels as a value and
// only a waiter that blocks turns it into a timer here, so a caller that
// never waits pays for none.
func Until(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, deadline)
}
