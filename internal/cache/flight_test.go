package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFlightCoalesces: N concurrent Do calls for one key run fn exactly
// once; all callers see the leader's value and N-1 report shared.
func TestFlightCoalesces(t *testing.T) {
	var f Flight[int]
	var runs atomic.Int64
	gate := make(chan struct{})

	const n = 16
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := f.Do(context.Background(), time.Time{}, "k", func() (int, error) {
				runs.Add(1)
				<-gate
				return 42, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if v != 42 {
				t.Errorf("Do = %d, want 42", v)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let followers pile up behind the leader, then release it.
	for f.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond)
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	if got := sharedCount.Load(); got != n-1 {
		t.Fatalf("%d callers reported shared, want %d", got, n-1)
	}
	if f.InFlight() != 0 {
		t.Fatalf("InFlight = %d after completion", f.InFlight())
	}
}

// TestFlightDistinctKeys: different keys do not coalesce.
func TestFlightDistinctKeys(t *testing.T) {
	var f Flight[string]
	var runs atomic.Int64
	var wg sync.WaitGroup
	for _, k := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			v, _, err := f.Do(context.Background(), time.Time{}, k, func() (string, error) {
				runs.Add(1)
				return k, nil
			})
			if err != nil || v != k {
				t.Errorf("Do(%s) = %q, %v", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if got := runs.Load(); got != 3 {
		t.Fatalf("fn ran %d times, want 3", got)
	}
}

// TestFlightErrorNotRetained: an error reaches the waiters of that flight
// but the next call starts fresh.
func TestFlightErrorNotRetained(t *testing.T) {
	var f Flight[int]
	boom := errors.New("boom")
	if _, _, err := f.Do(context.Background(), time.Time{}, "k", func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, shared, err := f.Do(context.Background(), time.Time{}, "k", func() (int, error) { return 7, nil })
	if err != nil || shared || v != 7 {
		t.Fatalf("second Do = %d, %v, %v", v, shared, err)
	}
}

// TestFlightFollowerDeadline: a follower whose context expires, or whose
// deadline passes, while the leader is still running gets
// context.DeadlineExceeded; the leader is unaffected.
func TestFlightFollowerDeadline(t *testing.T) {
	var f Flight[int]
	gate := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		v, _, err := f.Do(context.Background(), time.Time{}, "k", func() (int, error) {
			<-gate
			return 9, nil
		})
		if err != nil || v != 9 {
			t.Errorf("leader Do = %d, %v", v, err)
		}
	}()
	for f.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := f.Do(ctx, time.Time{}, "k", func() (int, error) {
		t.Error("follower ran fn")
		return 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower err = %v, want deadline exceeded", err)
	}
	if !shared {
		t.Fatal("expired follower did not report shared")
	}
	_, shared, err = f.Do(context.Background(), time.Now().Add(10*time.Millisecond), "k", func() (int, error) {
		t.Error("follower ran fn")
		return 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || !shared {
		t.Fatalf("follower past its deadline: err = %v, shared = %v; want deadline exceeded, shared", err, shared)
	}
	close(gate)
	<-leaderDone
}

// TestFlightUncontendedAllocs: a Do that no follower joins allocates its
// call record and nothing else — the channel a follower waits on, and the
// timer for its deadline, are made only when one arrives.
func TestFlightUncontendedAllocs(t *testing.T) {
	var f Flight[int]
	fn := func() (int, error) { return 1, nil }
	ctx, deadline := context.Background(), time.Now().Add(time.Minute)
	f.Do(ctx, deadline, "k", fn) // the map
	if allocs := testing.AllocsPerRun(100, func() {
		if v, shared, err := f.Do(ctx, deadline, "k", fn); v != 1 || shared || err != nil {
			t.Fatalf("Do = %d, %v, %v", v, shared, err)
		}
	}); allocs > 1 {
		t.Errorf("uncontended Do made %v allocations, want 1", allocs)
	}
}
