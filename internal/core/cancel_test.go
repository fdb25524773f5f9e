package core

import (
	"context"
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energyclarity/internal/energy"
)

// gateIface builds an interface whose single method body blocks on release
// and counts invocations: the test gains full control over where inside an
// evaluation a cancellation lands. Three free ECVs (8 x 8 x 8 = 512 joint
// assignments) give enumeration 16 chunks and Monte Carlo its usual shard
// fan-out, so every parallel path really exercises multiple work units.
func gateIface(started chan<- struct{}, release <-chan struct{}, calls *atomic.Int64) *Interface {
	levels := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	uniform := []float64{1, 1, 1, 1, 1, 1, 1, 1}
	var once sync.Once
	return New("gate").
		MustECV(NumECV("a", levels, uniform, "")).
		MustECV(NumECV("b", levels, uniform, "")).
		MustECV(NumECV("c", levels, uniform, "")).
		MustMethod(Method{Name: "work", Body: func(c *Call) energy.Joules {
			calls.Add(1)
			once.Do(func() { close(started) })
			<-release
			return energy.Joules(1 + c.ECVNum("a") + c.ECVNum("b")/10 + c.ECVNum("c")/100)
		}})
}

// gateModes is every mode whose evaluation fans out over work units, with
// options sized so the full run covers many units (512 assignments / 2048
// samples). ModeFixed runs a single body and is covered separately.
func gateModes() map[string]EvalOptions {
	return map[string]EvalOptions{
		"expected":    {Mode: ModeExpected, EnumLimit: 1024},
		"worst-case":  {Mode: ModeWorstCase, EnumLimit: 1024},
		"best-case":   {Mode: ModeBestCase, EnumLimit: 1024},
		"monte-carlo": {Mode: ModeMonteCarlo, Samples: 2048, Seed: 7},
	}
}

// TestEvalCtxCancelMidEval cancels an in-flight evaluation at every
// mode/parallelism combination and asserts (a) EvalCtx returns
// context.Canceled, (b) the workers are released promptly, and (c) at most
// one method body per worker ran after the cancellation — the "a cancelled
// eval frees its worker slot within one shard chunk" guarantee, measured
// in bodies rather than wall clock so the test is deterministic.
func TestEvalCtxCancelMidEval(t *testing.T) {
	for name, opts := range gateModes() {
		for _, par := range []int{1, 2, 3, runtime.GOMAXPROCS(0)} {
			opts := opts
			opts.Parallelism = par
			t.Run(name+"/par="+strconv.Itoa(par), func(t *testing.T) {
				started := make(chan struct{})
				release := make(chan struct{})
				var calls atomic.Int64
				iface := gateIface(started, release, &calls)
				scratch := energy.ScratchOutstanding()

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				type result struct {
					d   energy.Dist
					err error
				}
				done := make(chan result, 1)
				go func() {
					d, err := iface.EvalCtx(ctx, "work", nil, opts)
					done <- result{d, err}
				}()

				<-started // at least one body is in flight
				cancel()
				close(release) // unblock whatever already entered a body

				var r result
				select {
				case r = <-done:
				case <-time.After(10 * time.Second):
					t.Fatal("EvalCtx did not return after cancellation")
				}
				if !errors.Is(r.err, context.Canceled) {
					t.Fatalf("EvalCtx error = %v, want context.Canceled", r.err)
				}
				// Each of the (at most par) workers may finish the body it was
				// blocked in, but must not start another: the remaining
				// hundreds of assignments/samples are skipped.
				if got := calls.Load(); got > int64(par) {
					t.Errorf("%d bodies ran, want <= %d (workers kept drawing work after cancel)", got, par)
				}
				if left := energy.ScratchOutstanding() - scratch; left != 0 {
					t.Errorf("%d scratch buffers not returned after cancellation", left)
				}
			})
		}
	}
}

// TestEvalCtxPreCancelled covers the remaining path: a context that is
// already done — including ModeFixed, whose evaluation is a single body —
// must never run any body at all.
func TestEvalCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range Modes {
		var calls atomic.Int64
		release := make(chan struct{})
		close(release)
		iface := gateIface(make(chan struct{}, 1), release, &calls)
		opts := EvalOptions{Mode: mode, EnumLimit: 1024, Samples: 64, Seed: 1}
		if mode == ModeFixed {
			opts.Fixed = map[string]Value{"a": Num(0), "b": Num(0), "c": Num(0)}
		}
		_, err := iface.EvalCtx(ctx, "work", nil, opts)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mode %v: err = %v, want context.Canceled", mode, err)
		}
		if calls.Load() != 0 {
			t.Errorf("mode %v: %d bodies ran under a pre-cancelled context", mode, calls.Load())
		}
	}
}

// TestEvalCtxCancelLeavesLayerCacheConsistent cancels an evaluation that
// writes into a shared LayerCache, then re-runs the same evaluation to
// completion against the same cache and against no cache: the partial
// entries a cancelled run left behind must be complete, correct scalars,
// so the warm answer is bit-identical to the uncached one.
func TestEvalCtxCancelLeavesLayerCacheConsistent(t *testing.T) {
	for _, par := range []int{1, runtime.GOMAXPROCS(0)} {
		started := make(chan struct{})
		release := make(chan struct{})
		var calls atomic.Int64
		iface := gateIface(started, release, &calls)
		lc := NewLayerCache(0)

		opts := EvalOptions{Mode: ModeExpected, EnumLimit: 1024, Parallelism: par, Layer: lc}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := iface.EvalCtx(ctx, "work", nil, opts)
			done <- err
		}()
		<-started
		cancel()
		close(release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("par %d: err = %v, want context.Canceled", par, err)
		}

		// Re-run warm (same cache) and cold (no cache); bodies now return
		// immediately since release is closed.
		warm, err := iface.EvalCtx(context.Background(), "work", nil, opts)
		if err != nil {
			t.Fatalf("par %d: warm re-run: %v", par, err)
		}
		cold := opts
		cold.Layer = nil
		ref, err := iface.Eval("work", nil, cold)
		if err != nil {
			t.Fatalf("par %d: cold reference: %v", par, err)
		}
		ws, wp := warm.Support(), warm.Probs()
		rs, rp := ref.Support(), ref.Probs()
		if len(ws) != len(rs) {
			t.Fatalf("par %d: warm support %d points, cold %d", par, len(ws), len(rs))
		}
		for i := range rs {
			if ws[i] != rs[i] || wp[i] != rp[i] {
				t.Fatalf("par %d: point %d: warm (%v,%v) != cold (%v,%v)",
					par, i, ws[i], wp[i], rs[i], rp[i])
			}
		}
	}
}
