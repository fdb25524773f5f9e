package fleet

import (
	"context"
	"runtime"
	"testing"

	"energyclarity/internal/eisvc"
	"energyclarity/internal/faultsim"
)

// optFleetEIL trades energy for latency over two knobs; the inner loop
// makes each evaluation cost real work so a sweep is reliably still in
// flight when the test kills its serving node.
const optFleetEIL = `
interface opt_service {
  ecv jitter: choice { 1: 0.5, 1.2: 0.3, 1.6: 0.2 }
  func work(batch, level) {
    let acc = 0
    for i in 0 .. 4000 {
      acc = acc + (batch + i) % 7 + level
    }
    return acc
  }
  func energy(batch, level) { return (10nJ + 3nJ * (level + 1) * batch) * jitter + 0nJ * work(batch, level) }
  func latency(batch, level) { return (8 / (1 + level) + 0.5 * batch) * jitter + 0 * work(batch, level) }
}
`

func fleetOptRequest() eisvc.OptimizeRequest {
	return eisvc.OptimizeRequest{
		Interface:     "opt_service",
		EnergyMethod:  "energy",
		LatencyMethod: "latency",
		Knobs: []eisvc.OptimizeKnob{
			{Name: "batch", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
			{Name: "level", Values: []float64{0, 1, 2, 3, 4, 5, 6, 7}},
		},
		SLOMs: 9,
		// One evaluation at a time: the cold sweep takes long enough
		// that the mid-sweep kill lands while it is genuinely in flight.
		Parallelism: 1,
	}
}

// TestFleetOptimizeKillMidSweep is the resilience gate for the
// auto-optimizer: a sweep whose serving node dies mid-flight must land
// anyway (router failover walks to a live replica; the client's
// idempotent retry backstops it) with a frontier bit-identical to a
// clean sweep on the surviving nodes.
func TestFleetOptimizeKillMidSweep(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	c.Retry = eisvc.DefaultRetryPolicy()
	if _, err := c.RegisterCtx(context.Background(), optFleetEIL); err != nil {
		t.Fatal(err)
	}

	// Predict placement the way the router will: the first live
	// candidate under the sweep fingerprint serves the sweep.
	req := fleetOptRequest()
	cands := rt.candidatesFor(req.Interface, optimizeSpread(&req))
	if len(cands) < 3 {
		t.Fatalf("want 3 candidates, got %d", len(cands))
	}
	victim := cands[0].ID

	var res *eisvc.OptimizeResponse
	var sweepErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, sweepErr = c.OptimizeCtx(context.Background(), fleetOptRequest())
	}()
	// The sweep is a counted endpoint: the victim's in-flight count turns
	// positive the moment it admits the sweep, and the kill lands then.
	for cands[0].Server.InFlight() == 0 {
		select {
		case <-done:
			t.Fatalf("sweep finished (%v) before %s was seen serving it", sweepErr, victim)
		default:
			runtime.Gosched()
		}
	}
	if err := f.KillNode(victim); err != nil {
		t.Fatalf("kill %s: %v", victim, err)
	}
	<-done
	if sweepErr != nil {
		t.Fatalf("sweep lost to node kill: %v", sweepErr)
	}
	if res.Node == victim {
		t.Fatalf("sweep claims to be served by dead node %s (kill landed too late to test anything)", victim)
	}
	if len(res.Frontier) < 3 || res.Recommended == nil {
		t.Fatalf("post-kill sweep malformed: %+v", res)
	}

	// A clean repeat on the surviving nodes must be bit-identical and —
	// landing on the node that served the post-kill sweep — memo-served.
	again, err := c.OptimizeCtx(context.Background(), fleetOptRequest())
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != res.Digest || len(again.Frontier) != len(res.Frontier) {
		t.Fatalf("repeat digest %x != post-kill digest %x", again.Digest, res.Digest)
	}
	if again.MemoServed == 0 {
		t.Fatalf("repeat sweep hit no warm memo: %+v", again)
	}

	// Injected answer-lost resets (the server evaluated; the response
	// vanished) retry the whole sweep — idempotency makes that safe —
	// and the frontier stays bit-identical.
	// Seed 6 pins the roll sequence: the first attempt's answer is lost,
	// the retry goes through.
	fsim := faultsim.NewTransport(faultsim.Plan{Seed: 6, PResetPost: 0.5},
		eisvc.NewTransport(eisvc.TransportTuning{}))
	c.SetTransport(fsim)
	faulted, err := c.OptimizeCtx(context.Background(), fleetOptRequest())
	if err != nil {
		t.Fatalf("sweep under answer-lost resets: %v", err)
	}
	if faulted.Digest != res.Digest {
		t.Fatalf("faulted sweep digest %x != %x", faulted.Digest, res.Digest)
	}
	if fc := fsim.Counters(); fc.ResetsPos == 0 {
		t.Error("fault plan injected no answer-lost resets; the test exercised nothing")
	}

	// Fleet stats fold the optimize counters across surviving nodes.
	fs := rt.Stats(context.Background())
	if fs.Aggregate.OptimizeRequests == 0 || fs.Aggregate.OptimizeEvals == 0 {
		t.Fatalf("aggregate optimize counters empty: %+v", fs.Aggregate)
	}
	if fs.Aggregate.OptimizeMemoServed > fs.Aggregate.OptimizeEvals {
		t.Fatalf("memo-served %d exceeds evals %d", fs.Aggregate.OptimizeMemoServed, fs.Aggregate.OptimizeEvals)
	}
}
