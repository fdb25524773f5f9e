package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/fleet"
	"energyclarity/internal/mlservice"
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

	e16Classes, e16Clients, e16Tail = 192, 32, 12 // scale-out trace: a cold sweep, then 12 Zipf draws per client
	e16Service                      = 30 * time.Millisecond
	e16Batches, e16Senders          = 977, 4 // 977*1024 = 1,000,448 batch items
	// Fault phase: clients, requests per client, distinct request classes.
	e16FaultClients, e16FaultPerClient, e16FaultDistinct = 6, 20, 12
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

// e16Seed seeds a fleet with the shardable interface stacks: each a
// zero-ECV method whose body holds the worker slot for service (modeling
// the evaluation cost of a real stack) and returns a class-deterministic
// energy.
func e16Seed(service time.Duration) func(*fleet.Fleet) error {
	return func(f *fleet.Fleet) error {
		for i := 0; i < e16Stacks; i++ {
			iface := core.New(e16StackFor(i)).MustMethod(core.Method{
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
			if err := f.SeedInterface(iface.Name(), iface); err != nil {
				return fmt.Errorf("seed %s: %w", iface.Name(), err)
			}
		}
		return nil
	}
}

func e16StackFor(class int) string {
	return fmt.Sprintf("scale_stage_%02d", class%e16Stacks)
}

// e16Ask asks class k of the scale-out stacks.
func e16Ask(ctx context.Context, c *eisvc.Client, k int) (energy.Dist, *eisvc.EvalResponse, error) {
	return c.EvalCtx(ctx, e16StackFor(k), "infer", []core.Value{core.Num(float64(k))}, core.Expected())
}

// e16Client builds a fleet client named prefix-cl.
func e16Client(base, prefix string) func(cl int) *eisvc.Client {
	return func(cl int) *eisvc.Client {
		c := eisvc.NewClient(base)
		c.ID = fmt.Sprintf("%s-%d", prefix, cl)
		return c
	}
}

// e16ScaleRun runs the scale-out trace on a fresh fleet of cfg: every
// class swept cold once, round-robin over the clients, then a warm Zipf
// tail. Answers are compared against ref when it is set. It returns the
// router's stats after the trace too.
func e16ScaleRun(cfg fleet.Config, ref []energy.Dist) (*tally, *fleet.FleetStats, error) {
	_, rt, base, stop, err := startFleet(cfg, e16Seed(e16Service))
	if err != nil {
		return nil, nil, err
	}
	defer stop()
	tr, err := runTrace(traceSpec{
		clients: e16Clients, classes: e16Classes, sweep: true, n: e16Tail, s: e16ZipfS, seed: 3000,
		client: e16Client(base, "scale"), ask: e16Ask, ref: ref,
	})
	return tr, rt.Stats(context.Background()), err
}

// startFleet starts a fleet of cfg, seeds it (unless seed is nil) and
// puts a router in front of it. stop stops the router and closes the
// fleet.
func startFleet(cfg fleet.Config, seed func(*fleet.Fleet) error) (fl *fleet.Fleet, rt *fleet.Router, base string, stop func(), err error) {
	if fl, err = fleet.New(cfg); err != nil {
		return nil, nil, "", nil, err
	}
	var stopRouter func()
	if seed != nil {
		err = seed(fl)
	}
	if err == nil {
		rt, base, stopRouter, err = fl.StartRouter("")
	}
	if err != nil {
		fl.Close()
		return nil, nil, "", nil, err
	}
	return fl, rt, base, func() { stopRouter(); fl.Close() }, nil
}

// e16NodeStats sums evaluations and peer hits over every node, asking
// each daemon directly (the router aggregate only covers live nodes, and
// the rebalance phase wants the drained donor counted too). A node it
// cannot read fails the sum: its evaluations would go uncounted.
func e16NodeStats(f *fleet.Fleet) (evals, peerHits uint64, err error) {
	for _, n := range f.Nodes() {
		st, err := eisvc.NewClient(n.URL).StatsCtx(context.Background())
		if err != nil {
			return 0, 0, fmt.Errorf("stats of %s: %w", n.ID, err)
		}
		evals += st.Evaluations
		peerHits += st.PeerHits
	}
	return evals, peerHits, nil
}

// E16Fleet runs the fleet experiment.
func E16Fleet() (*E16Result, error) {
	res := &E16Result{
		Nodes: e16Nodes, Classes: e16Classes, Clients: e16Clients,
		ServiceMs: float64(e16Service) / float64(time.Millisecond),
	}

	// Phase 1: single-node baseline, then the fleet, same trace. Every node
	// starts cold, so this phase measures admission spread: after its first
	// probe a node holds each peer's memo summary and sends no key a peer
	// cannot hold (phases 2 and 3 measure the forwarding path itself).
	single, _, err := e16ScaleRun(fleet.Config{Nodes: 1, Replication: 1, Node: eisvc.Config{Workers: 1}}, nil)
	if err != nil {
		return nil, err
	}
	tr, fs, err := e16ScaleRun(fleet.Config{Nodes: e16Nodes, Replication: 3, VirtualNodes: 256, Node: eisvc.Config{Workers: 1}},
		single.first)
	if err != nil {
		return nil, err
	}
	res.ScaleRouted = fs.Routed
	for _, st := range fs.PerNode {
		res.ScaleEvals += st.Evaluations
		res.ScaleEvalsMax = max(res.ScaleEvalsMax, st.Evaluations)
	}
	res.TraceLen, res.SingleSecs, res.FleetSecs = tr.offered, single.wall.Seconds(), tr.wall.Seconds()
	res.ScaleMismatches = tr.mismatched
	res.SingleRPS = float64(single.offered) / res.SingleSecs
	res.FleetRPS = float64(tr.offered) / res.FleetSecs
	res.Speedup = res.SingleSecs / res.FleetSecs

	// Phases 2 and 3 share a fleet with instant (service=0) stacks: the
	// batch trace is router/wire-bound, which is what it measures.
	if err := res.batchAndRebalance(); err != nil {
		return nil, err
	}

	// Phase 4.
	return res, res.faultPhase()
}

// batchAndRebalance runs the warm million-item batch trace, then the
// join+drain rebalance probe on the same (now warm) fleet.
func (r *E16Result) batchAndRebalance() error {
	fl, rt, base, stop, err := startFleet(fleet.Config{Nodes: e16Nodes}, e16Seed(0))
	if err != nil {
		return err
	}
	defer stop()

	r.BatchItems = e16Batches * e16BatchSize
	var (
		mu       sync.Mutex
		served   int // answered from memo, peer, dedup, or coalescing
		firstErr error
		wg       sync.WaitGroup
	)
	start := time.Now()
	for g := 0; g < e16Senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := eisvc.NewClient(base)
			c.ID = fmt.Sprintf("batch-%d", g)
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(7000+g))),
				1.2, 1, uint64(e16Classes-1))
			share := e16Batches / e16Senders
			if g < e16Batches%e16Senders {
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
				items, err := c.EvalBatchCtx(context.Background(), reqs)
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
	r.RebalanceClasses = e16Classes
	sweep := traceSpec{clients: 1, classes: e16Classes, sweep: true, client: e16Client(base, "rebalance"), ask: e16Ask}
	warm, err := runTrace(sweep)
	if err != nil {
		return fmt.Errorf("rebalance warm: %w", err)
	}

	victim := fl.OwnersOf(e16StackFor(0))[0]
	if _, err := fl.AddNode(); err != nil {
		return err
	}
	if err := fl.DrainNode(ctx, victim); err != nil {
		return err
	}

	evalsBefore, peerBefore, err := e16NodeStats(fl)
	if err != nil {
		return err
	}
	sweep.ref = warm.first
	reask, err := runTrace(sweep)
	if err != nil {
		return fmt.Errorf("rebalance re-ask: %w", err)
	}
	r.RebalanceMismatches = reask.mismatched
	evalsAfter, peerAfter, err := e16NodeStats(fl)
	if err != nil {
		return err
	}
	r.RebalanceEvalDelta = evalsAfter - evalsBefore
	r.RebalancePeerHits = peerAfter - peerBefore
	return nil
}

// faultPhase runs the E13 CNN-serving stack on a 3-node fleet and takes
// two of the three nodes away mid-trace: the first replica owner is
// killed outright at one third of the trace, the second partitioned at
// two thirds. Router failover plus client retries must deliver every
// request, bit-identical to a fault-free standalone reference.
func (r *E16Result) faultPhase() error {
	ref, err := fig1Reference(e16FaultDistinct)
	if err != nil {
		return err
	}

	fl, rt, base, stop, err := startFleet(fleet.Config{Nodes: 3}, func(f *fleet.Fleet) error {
		cnn, err := fig1CNN()
		if err == nil {
			err = f.SeedInterface("cnn_forward", cnn)
		}
		if err == nil {
			_, err = f.RegisterSource(mlservice.Fig1EIL)
		}
		return err
	})
	if err != nil {
		return err
	}
	defer stop()

	owners := fl.OwnersOf("ml_webservice")
	total := e16FaultClients * e16FaultPerClient
	tr, err := runTrace(traceSpec{
		clients: e16FaultClients, classes: e16FaultDistinct, n: e16FaultPerClient, s: e13ZipfS, seed: 4000,
		client: func(cl int) *eisvc.Client {
			c := e16Client(base, "fault")(cl)
			c.Timeout = e16AttemptCap
			// Persistent enough to ride out a kill and a partition landing
			// in the same trace.
			c.Retry = retryPolicy(8, 50*time.Millisecond, int64(600+cl))
			return c
		},
		ask: e13Ask,
		ref: ref,
		hook: func(n int) {
			switch n {
			case total / 3:
				_ = fl.KillNode(owners[0])
				r.Killed = owners[0]
			case 2 * total / 3:
				_ = fl.PartitionNode(owners[1], true)
				r.Partitioned = owners[1]
			}
		},
	})
	_ = fl.PartitionNode(owners[1], false) // heal before teardown
	r.FaultFailovers = rt.Counters().Failovers
	r.FaultOffered, r.FaultSucceeded, r.FaultFailed = tr.offered, tr.succeeded, tr.failed
	r.FaultMismatches, r.FaultRetries = tr.mismatched, tr.counters.Retries
	return err
}
