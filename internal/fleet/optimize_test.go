package fleet

import (
	"context"
	"runtime"
	"testing"

	"energyclarity/internal/autoopt"
	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/faultsim"
)

// optFleetEIL trades energy for latency over two knobs; the inner loop
// makes each evaluation cost real work so a sweep is reliably still in
// flight when the test kills a node serving it.
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

var fleetOptSpec = autoopt.Spec{
	Space: autoopt.Space{
		{Name: "batch", Values: []float64{1, 2, 3, 4, 5, 6, 7, 8}},
		{Name: "level", Values: []float64{0, 1, 2, 3, 4, 5, 6, 7}},
	},
	SLOMs: 9,
}

// fleetOptSweep sweeps fleetOptSpec through c: one batch of 128 items,
// which the router splits across the nodes.
func fleetOptSweep(c *eisvc.Client) (*autoopt.Result, error) {
	return autoopt.Sweep(context.Background(), fleetOptSpec,
		autoopt.FleetEvaluator(c, "opt_service", "energy", "latency", core.Expected()))
}

// TestFleetOptimizeKillMidSweep is the resilience gate for the
// auto-optimizer as a fleet client: a sweep whose evaluations are in
// flight on a node that dies must land anyway (the router fails a
// sub-batch over to a live replica; the client's retry backstops it) with
// the frontier the offline sweep fits in process.
func TestFleetOptimizeKillMidSweep(t *testing.T) {
	stacks, err := eil.Compile(optFleetEIL, nil)
	if err != nil {
		t.Fatal(err)
	}
	offline, err := autoopt.Sweep(context.Background(), fleetOptSpec,
		autoopt.CoreEvaluator(stacks["opt_service"], "energy", "latency", core.Expected()))
	if err != nil {
		t.Fatal(err)
	}

	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	c.Retry = eisvc.DefaultRetryPolicy()
	if _, err := c.RegisterCtx(context.Background(), optFleetEIL); err != nil {
		t.Fatal(err)
	}

	var res *autoopt.Result
	var sweepErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, sweepErr = fleetOptSweep(c)
	}()
	// A batch is a counted request: the first node whose in-flight count
	// turns positive is serving part of the sweep, and the kill lands then.
	var victim string
	for victim == "" {
		select {
		case <-done:
			t.Fatalf("sweep finished (%v) before any node was seen serving it", sweepErr)
		default:
		}
		for _, n := range f.Nodes() {
			if n.Server.InFlight() > 0 {
				victim = n.ID
				break
			}
		}
		runtime.Gosched()
	}
	if err := f.KillNode(victim); err != nil {
		t.Fatalf("kill %s: %v", victim, err)
	}
	<-done
	if sweepErr != nil {
		t.Fatalf("sweep lost to node kill: %v", sweepErr)
	}
	if res.Digest != offline.Digest || len(res.Frontier) < 3 || res.Recommended == nil {
		t.Fatalf("post-kill sweep digest %x, offline %x: %+v", res.Digest, offline.Digest, res)
	}
	if rt.Counters().Failovers == 0 {
		t.Fatalf("no sub-batch failed over from %s (kill landed too late to test anything)", victim)
	}

	// A clean repeat on the surviving nodes is bit-identical and finds the
	// memos the post-kill sweep warmed.
	again, err := fleetOptSweep(c)
	if err != nil {
		t.Fatal(err)
	}
	if again.Digest != offline.Digest {
		t.Fatalf("repeat digest %x != offline digest %x", again.Digest, offline.Digest)
	}
	if again.MemoServed == 0 {
		t.Fatalf("repeat sweep hit no warm memo: %+v", again)
	}

	// Injected answer-lost resets (the server evaluated; the response
	// vanished) retry the batch — evaluations are idempotent, so that is
	// safe — and the frontier stays bit-identical.
	// Seed 6 pins the roll sequence: some attempt's answer is lost, its
	// retry goes through.
	fsim := faultsim.NewTransport(faultsim.Plan{Seed: 6, PResetPost: 0.5},
		eisvc.NewTransport(eisvc.TransportTuning{}))
	c.SetTransport(fsim)
	faulted, err := fleetOptSweep(c)
	if err != nil {
		t.Fatalf("sweep under answer-lost resets: %v", err)
	}
	if faulted.Digest != offline.Digest {
		t.Fatalf("faulted sweep digest %x != offline digest %x", faulted.Digest, offline.Digest)
	}
	if fc := fsim.Counters(); fc.ResetsPos == 0 {
		t.Error("fault plan injected no answer-lost resets; the test exercised nothing")
	}
}
