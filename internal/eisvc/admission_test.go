package eisvc

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestAdmissionExpiredNeverGranted is the cancellation-race regression:
// when the context is already done, acquire must shed with ErrDeadline
// even when a worker slot is free — select would otherwise pick the grant
// case at random and run an expired request. Many iterations make the
// 50/50 race essentially certain to fire on a regressed implementation.
func TestAdmissionExpiredNeverGranted(t *testing.T) {
	a := newAdmission(4, 16)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before every acquire; all slots free
	for i := 0; i < 500; i++ {
		err := a.acquire(ctx)
		if err == nil {
			a.release()
			t.Fatalf("iteration %d: expired request was granted a slot", i)
		}
		if !errors.Is(err, ErrDeadline) {
			t.Fatalf("iteration %d: err = %v, want ErrDeadline", i, err)
		}
	}
	if got := a.read().Granted; got != 0 {
		t.Errorf("grants = %d, want 0", got)
	}
	if deadline := a.read().ShedDeadline; deadline != 500 {
		t.Errorf("deadline sheds = %d, want 500", deadline)
	}
}

// TestAdmissionCountersBalance storms the gate with a mix of successful,
// queue-shed, and deadline-shed requests and asserts the books balance:
// every acquire is exactly one of granted / shed-queue-full /
// shed-deadline, and the gate drains back to depth zero.
func TestAdmissionCountersBalance(t *testing.T) {
	const (
		workers  = 2
		queueCap = 4
		clients  = 16
		perEach  = 25
	)
	a := newAdmission(workers, queueCap)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perEach; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(i%3)*time.Millisecond)
				err := a.acquire(ctx)
				if err == nil {
					time.Sleep(200 * time.Microsecond) // hold the slot briefly
					a.release()
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()

	n := a.read()
	queueFull, deadline := n.ShedQueueFull, n.ShedDeadline
	total := n.Granted + queueFull + deadline
	if want := uint64(clients * perEach); total != want {
		t.Errorf("granted %d + shed %d/%d = %d, want %d",
			n.Granted, queueFull, deadline, total, want)
	}
	if depth, _ := a.depth(); depth != 0 {
		t.Errorf("gate did not drain: depth = %d", depth)
	}
}
