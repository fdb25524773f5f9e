package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/fleet"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/nn"
)

// E16 is the fleet experiment: the single daemon of E11-E13 scaled out to
// a sharded, replicated cluster (internal/fleet). Four phases:
//
//  1. Scale-out: the same admission-bound trace against a 1-node and an
//     8-node fleet, both behind the router. Evaluation cost is modeled as
//     wall-clock service time (the daemon holds its worker slot for the
//     duration), so the measured speedup reflects the fleet's ability to
//     spread admission across nodes rather than this machine's core count.
//  2. A million-request warm Zipf trace through /v1/evalbatch: the router
//     splits every batch by shard owner, fans sub-batches out
//     concurrently, and stitches answers back in order.
//  3. Rebalance: a node joins and an owner drains mid-life; re-asking the
//     full warm working set must trigger zero re-evaluations — the moved
//     shards are re-homed entirely out of peers' warm caches.
//  4. Faults: the E13 CNN-serving stack on a 3-node fleet; one replica
//     owner is killed and another partitioned mid-trace. Retrying clients
//     plus router failover must deliver every answer, bit-identical to a
//     fault-free reference.
const (
	e16Nodes      = 8
	e16Stacks     = 32 // distinct interface stacks sharded over the ring
	e16ZipfS      = 1.1
	e16BatchSize  = 1024
	e16AttemptCap = 300 * time.Millisecond // per-attempt cap in the fault phase
)

// E16Result carries the four phases.
type E16Result struct {
	// Phase 1: scale-out.
	Nodes, Classes, TraceLen, Clients int
	ServiceMs                         float64
	SingleSecs, FleetSecs             float64
	SingleRPS, FleetRPS               float64
	Speedup                           float64
	ScaleMismatches                   int
	// What the speedup is made of, counted: the fleet trace's evaluations
	// in total and on its busiest node (the single node runs all of its
	// own on one worker), and the requests the router placed.
	ScaleEvals, ScaleEvalsMax, ScaleRouted uint64

	// Phase 2: warm batch trace.
	BatchItems    int
	BatchSecs     float64
	BatchRPS      float64
	BatchFailures int
	BatchHitRate  float64
	BalanceMax    uint64 // busiest node's batch items
	BalanceMin    uint64 // idlest node's batch items

	// Phase 3: rebalance (join + drain).
	RebalanceClasses    int
	RebalanceEvalDelta  uint64 // re-evaluations caused by re-homing (want 0)
	RebalancePeerHits   uint64 // shards re-homed from peers' warm caches
	RebalanceMismatches int
	Drained             string

	// Phase 4: kill + partition under load.
	FaultOffered, FaultSucceeded, FaultFailed int
	FaultMismatches                           int
	FaultFailovers                            uint64
	FaultRetries                              uint64
	Killed, Partitioned                       string
}

// Table renders E16.
func (r *E16Result) Table() *Table {
	t := &Table{
		ID:     "E16",
		Title:  "Fleet: sharded, replicated daemons with peer cache re-homing",
		Header: []string{"phase", "nodes", "requests", "throughput", "mismatches", "outcome"},
		Rows: [][]string{
			{"scale-out zipf trace", fmt.Sprintf("1 vs %d", r.Nodes), cell(r.TraceLen),
				fmt.Sprintf("%.0f vs %.0f req/s", r.SingleRPS, r.FleetRPS),
				cell(r.ScaleMismatches), fmt.Sprintf("%.1fx speedup", r.Speedup)},
			{"warm batch trace", cell(r.Nodes), cell(r.BatchItems),
				fmt.Sprintf("%.0f items/s", r.BatchRPS),
				cell(r.BatchFailures), fmt.Sprintf("%.2f%% cache-served", 100*r.BatchHitRate)},
			{"join+drain rebalance", fmt.Sprintf("%d+1-1", r.Nodes), cell(r.RebalanceClasses),
				"-", cell(r.RebalanceMismatches),
				fmt.Sprintf("%d re-evals; %d shards re-homed from peers", r.RebalanceEvalDelta, r.RebalancePeerHits)},
			{"kill + partition", "3", cell(r.FaultOffered), "-",
				cell(r.FaultMismatches),
				fmt.Sprintf("%d/%d answered; %d failovers", r.FaultSucceeded, r.FaultOffered, r.FaultFailovers)},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("scale-out: %d classes over %d stacks, %.0f ms modeled service time, %d clients; %.2fs single vs %.2fs fleet",
			r.Classes, e16Stacks, r.ServiceMs, r.Clients, r.SingleSecs, r.FleetSecs),
		fmt.Sprintf("scale-out spread: %d requests routed, %d evaluations, %d on the busiest node",
			r.ScaleRouted, r.ScaleEvals, r.ScaleEvalsMax),
		fmt.Sprintf("batch shard balance: busiest node %d items, idlest %d", r.BalanceMax, r.BalanceMin),
		fmt.Sprintf("faults: killed %s and partitioned %s mid-trace; clients retried %d times",
			r.Killed, r.Partitioned, r.FaultRetries),
		"every delivered answer was bit-identical to its reference")
	return t
}

// e16Stack builds one shardable interface stack: a zero-ECV method whose
// body holds the worker slot for service (modeling the evaluation cost of
// a real stack) and returns a class-deterministic energy.
func e16Stack(i int, service time.Duration) *core.Interface {
	return core.New(fmt.Sprintf("scale_stage_%02d", i)).MustMethod(core.Method{
		Name:   "infer",
		Params: []string{"class"},
		Doc:    "class-deterministic energy after a modeled service time",
		Body: func(c *core.Call) energy.Joules {
			if service > 0 {
				time.Sleep(service)
			}
			return energy.Joules(1 + 0.01*float64(i) + 0.001*c.Num(0))
		},
	})
}

// e16Seed registers the stacks on the fleet's primary and replicates.
func e16Seed(f *fleet.Fleet, service time.Duration) error {
	for i := 0; i < e16Stacks; i++ {
		iface := e16Stack(i, service)
		if err := f.SeedInterface(iface.Name(), iface); err != nil {
			return fmt.Errorf("seed %s: %w", iface.Name(), err)
		}
	}
	return nil
}

func e16StackFor(class int) string {
	return fmt.Sprintf("scale_stage_%02d", class%e16Stacks)
}

// e16RunTrace drives the scale-out trace: every class is swept cold once
// (spread round-robin over the clients), then a warm Zipf tail fills the
// remaining requests. If reference is nil the answers are recorded into
// record; otherwise each answer is compared bit-identically against it.
// Returns elapsed seconds and the mismatch count.
func e16RunTrace(base string, classes, total, clients int, reference, record []*energy.Dist) (float64, int, error) {
	var (
		mu         sync.Mutex
		mismatches int
		firstErr   error
		wg         sync.WaitGroup
	)
	start := time.Now()
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
			c.ID = fmt.Sprintf("scale-%d", cl)
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(3000+cl))),
				e16ZipfS, 1, uint64(classes-1))
			// Sweep this client's share of the cold classes first, then
			// draw its share of the warm Zipf tail.
			sweep := (classes - cl + clients - 1) / clients
			tail := (total - classes) / clients
			if cl < (total-classes)%clients {
				tail++
			}
			for i := 0; i < sweep+tail; i++ {
				k := cl + i*clients
				if i >= sweep {
					k = int(zipf.Uint64())
				}
				d, _, err := c.Eval(e16StackFor(k), "infer",
					[]core.Value{core.Num(float64(k))}, core.Expected())
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("scale trace class %d: %w", k, err)
					}
					mu.Unlock()
					return
				}
				if reference != nil {
					if want := reference[k]; want != nil && !d.Equal(*want, 0) {
						mismatches++
					}
				} else if record[k] == nil {
					record[k] = &d
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()
	if firstErr != nil {
		return 0, 0, firstErr
	}
	return time.Since(start).Seconds(), mismatches, nil
}

// e16NodeStats sums evaluations and peer hits over every reachable node,
// asking each daemon directly (the router aggregate only covers live
// nodes, and the rebalance phase wants the drained donor counted too).
func e16NodeStats(f *fleet.Fleet) (evals, peerHits uint64) {
	for _, n := range f.Nodes() {
		st, err := eisvc.NewClient(n.URL).Stats()
		if err != nil {
			continue
		}
		evals += st.Evaluations
		peerHits += st.PeerHits
	}
	return evals, peerHits
}

// E16Fleet runs the fleet experiment. short shrinks every phase for
// `go test -short`.
func E16Fleet(short bool) (*E16Result, error) {
	classes, trace, clients := 192, 576, 32
	service := 30 * time.Millisecond
	batches, senders := 977, 4 // 977*1024 = 1,000,448 items
	faultClients, faultPerClient, faultDistinct := 6, 20, 12
	if short {
		classes, trace, clients = 64, 192, 16
		service = 12 * time.Millisecond
		batches = 60 // 61,440 items
		faultClients, faultPerClient, faultDistinct = 3, 10, 8
	}
	res := &E16Result{
		Nodes: e16Nodes, Classes: classes, TraceLen: trace, Clients: clients,
		ServiceMs: float64(service) / float64(time.Millisecond),
	}

	// Phase 1: single-node baseline, then the fleet, same trace. Peer
	// forwarding is off on both sides: every node starts cold, so probes
	// could only miss, and this phase isolates admission spread (phases 2
	// and 3 measure the forwarding path itself).
	reference := make([]*energy.Dist, classes)
	single, err := fleet.New(fleet.Config{
		Nodes: 1, Replication: 1, NoPeerForwarding: true,
		Node: eisvc.Config{Workers: 1},
	})
	if err != nil {
		return nil, err
	}
	if err := e16Seed(single, service); err != nil {
		single.Close()
		return nil, err
	}
	_, base, stop, err := single.StartRouter("")
	if err != nil {
		single.Close()
		return nil, err
	}
	res.SingleSecs, _, err = e16RunTrace(base, classes, trace, clients, nil, reference)
	stop()
	single.Close()
	if err != nil {
		return nil, err
	}

	fl, err := fleet.New(fleet.Config{
		Nodes: e16Nodes, Replication: 3, VirtualNodes: 256, NoPeerForwarding: true,
		Node: eisvc.Config{Workers: 1},
	})
	if err != nil {
		return nil, err
	}
	if err := e16Seed(fl, service); err != nil {
		fl.Close()
		return nil, err
	}
	rt, base, stop, err := fl.StartRouter("")
	if err != nil {
		fl.Close()
		return nil, err
	}
	res.FleetSecs, res.ScaleMismatches, err = e16RunTrace(base, classes, trace, clients, reference, nil)
	fs := rt.Stats(context.Background())
	res.ScaleRouted = fs.Routed
	for _, st := range fs.PerNode {
		res.ScaleEvals += st.Evaluations
		res.ScaleEvalsMax = max(res.ScaleEvalsMax, st.Evaluations)
	}
	stop()
	fl.Close()
	if err != nil {
		return nil, err
	}
	res.SingleRPS = float64(trace) / res.SingleSecs
	res.FleetRPS = float64(trace) / res.FleetSecs
	res.Speedup = res.SingleSecs / res.FleetSecs

	// Phases 2 and 3 share a fleet with instant (service=0) stacks: the
	// batch trace is router/wire-bound, which is what it measures.
	if err := res.batchAndRebalance(classes, batches, senders); err != nil {
		return nil, err
	}

	// Phase 4.
	return res, res.faultPhase(faultClients, faultPerClient, faultDistinct)
}

// batchAndRebalance runs the warm million-item batch trace, then the
// join+drain rebalance probe on the same (now warm) fleet.
func (r *E16Result) batchAndRebalance(classes, batches, senders int) error {
	fl, err := fleet.New(fleet.Config{Nodes: e16Nodes})
	if err != nil {
		return err
	}
	defer fl.Close()
	if err := e16Seed(fl, 0); err != nil {
		return err
	}
	rt, base, stop, err := fl.StartRouter("")
	if err != nil {
		return err
	}
	defer stop()

	r.BatchItems = batches * e16BatchSize
	var (
		mu       sync.Mutex
		served   int // answered from memo, peer, dedup, or coalescing
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
			c.ID = fmt.Sprintf("batch-%d", g)
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(7000+g))),
				1.2, 1, uint64(classes-1))
			share := batches / senders
			if g < batches%senders {
				share++
			}
			reqs := make([]eisvc.EvalRequest, e16BatchSize)
			for b := 0; b < share; b++ {
				for i := range reqs {
					k := int(zipf.Uint64())
					reqs[i] = eisvc.EvalRequest{
						Interface: e16StackFor(k),
						Method:    "infer",
						Args:      eisvc.Args{core.Int(k)},
						Mode:      core.ModeExpected.String(),
					}
				}
				items, err := c.EvalBatch(reqs)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("batch sender %d: %w", g, err)
					}
					mu.Unlock()
					return
				}
				for _, it := range items {
					if it.Status != 200 || it.Dist == nil {
						r.BatchFailures++
						continue
					}
					if it.Cached || it.Deduped || it.Coalesced || it.Peer {
						served++
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	r.BatchSecs = time.Since(start).Seconds()
	r.BatchRPS = float64(r.BatchItems) / r.BatchSecs
	r.BatchHitRate = float64(served) / float64(r.BatchItems)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fs := rt.Stats(ctx)
	for _, st := range fs.PerNode {
		if r.BalanceMin == 0 || st.BatchItems < r.BalanceMin {
			r.BalanceMin = st.BatchItems
		}
		if st.BatchItems > r.BalanceMax {
			r.BalanceMax = st.BatchItems
		}
	}

	// Phase 3: warm the full working set through single evals, shift the
	// ring (join + drain a replica owner), and re-ask everything. Every
	// answer must come from a warm cache somewhere: zero re-evaluations.
	r.RebalanceClasses = classes
	c := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
	c.ID = "rebalance"
	ref := make([]energy.Dist, classes)
	for k := 0; k < classes; k++ {
		d, _, err := c.Eval(e16StackFor(k), "infer",
			[]core.Value{core.Num(float64(k))}, core.Expected())
		if err != nil {
			return fmt.Errorf("rebalance warm class %d: %w", k, err)
		}
		ref[k] = d
	}

	victim := fl.OwnersOf(e16StackFor(0))[0]
	if _, err := fl.AddNode(); err != nil {
		return err
	}
	if err := fl.DrainNode(ctx, victim); err != nil {
		return err
	}
	r.Drained = victim

	evalsBefore, peerBefore := e16NodeStats(fl)
	for k := 0; k < classes; k++ {
		d, _, err := c.Eval(e16StackFor(k), "infer",
			[]core.Value{core.Num(float64(k))}, core.Expected())
		if err != nil {
			return fmt.Errorf("rebalance re-ask class %d: %w", k, err)
		}
		if !d.Equal(ref[k], 0) {
			r.RebalanceMismatches++
		}
	}
	evalsAfter, peerAfter := e16NodeStats(fl)
	r.RebalanceEvalDelta = evalsAfter - evalsBefore
	r.RebalancePeerHits = peerAfter - peerBefore
	return nil
}

// e16Retry is the fault-phase client policy: persistent enough to ride
// out a kill and a partition landing in the same trace.
func e16Retry(seed int64) *eisvc.RetryPolicy {
	p := &eisvc.RetryPolicy{
		MaxAttempts: 8,
		BaseDelay:   2 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
	}
	return p.Seed(seed)
}

// faultPhase runs the E13 CNN-serving stack on a 3-node fleet and takes
// two of the three nodes away mid-trace: the first replica owner is
// killed outright at one third of the trace, the second partitioned at
// two thirds. Router failover plus client retries must deliver every
// request, bit-identical to a fault-free standalone reference.
func (r *E16Result) faultPhase(clients, perClient, distinct int) error {
	// Fault-free reference answers from a standalone daemon.
	_, refBase, refShutdown, err := e13Daemon(eisvc.Config{})
	if err != nil {
		return err
	}
	refClient := eisvc.NewClient(refBase)
	reference := make([]energy.Dist, distinct)
	for k := 0; k < distinct; k++ {
		d, _, err := refClient.Eval("ml_webservice", "handle", e11Request(k),
			core.MonteCarlo(e13Samples, e13Seed))
		if err != nil {
			refShutdown()
			return fmt.Errorf("fault reference class %d: %w", k, err)
		}
		reference[k] = d
	}
	refShutdown()

	fl, err := fleet.New(fleet.Config{Nodes: 3})
	if err != nil {
		return err
	}
	defer fl.Close()
	rig, err := Rig4090()
	if err != nil {
		return err
	}
	cnn, err := nn.CNNEnergyInterface(nn.Fig1CNN(), rig.Spec, rig.Coef.HardwareInterface())
	if err != nil {
		return err
	}
	if err := fl.SeedInterface("cnn_forward", cnn); err != nil {
		return err
	}
	if _, err := fl.RegisterSource(mlservice.Fig1EIL); err != nil {
		return err
	}
	rt, base, stop, err := fl.StartRouter("")
	if err != nil {
		return err
	}
	defer stop()

	owners := fl.OwnersOf("ml_webservice")
	total := clients * perClient
	var (
		started  atomic.Int64
		killOnce sync.Once
		partOnce sync.Once
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
			c.ID = fmt.Sprintf("fault-%d", cl)
			c.Timeout = e16AttemptCap
			c.Retry = e16Retry(int64(600 + cl))
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(4000+cl))),
				e13ZipfS, 1, uint64(distinct-1))
			for i := 0; i < perClient; i++ {
				switch n := started.Add(1); {
				case n == int64(total/3):
					killOnce.Do(func() {
						_ = fl.KillNode(owners[0])
						mu.Lock()
						r.Killed = owners[0]
						mu.Unlock()
					})
				case n == int64(2*total/3):
					partOnce.Do(func() {
						_ = fl.PartitionNode(owners[1], true)
						mu.Lock()
						r.Partitioned = owners[1]
						mu.Unlock()
					})
				}
				k := int(zipf.Uint64())
				d, _, err := c.Eval("ml_webservice", "handle", e11Request(k),
					core.MonteCarlo(e13Samples, e13Seed))
				mu.Lock()
				r.FaultOffered++
				if err != nil {
					r.FaultFailed++
					if firstErr == nil {
						firstErr = fmt.Errorf("fault trace class %d: %w", k, err)
					}
					mu.Unlock()
					continue
				}
				r.FaultSucceeded++
				if !d.Equal(reference[k], 0) {
					r.FaultMismatches++
				}
				mu.Unlock()
			}
			cs := c.Counters()
			mu.Lock()
			r.FaultRetries += cs.Retries
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	_ = fl.PartitionNode(owners[1], false) // heal before teardown
	r.FaultFailovers = rt.Counters().Failovers
	if firstErr != nil {
		return firstErr
	}
	return nil
}
