// Command efleet runs a sharded, replicated cluster of energy-interface
// daemons (internal/fleet) behind a single consistent-hashing router. Each
// interface stack is owned by R ring nodes; the router routes evaluations
// to an owner (failing over on node loss or shedding), forwards mutations
// through the primary with snapshot replication, and splits batches by
// shard. Nodes answer one another's memo misses peer-to-peer, so shards
// re-home out of warm caches when the ring changes.
//
// Usage:
//
//	efleet [-addr host:port] [-nodes n] [-replication r] [-vnodes n]
//	       [-workers n] [-queue n] [-memo n] [-deadline d]
//	       [-snapshot-dir dir] [-fig1] [-load file.eil]... [-drain-timeout d]
//	efleet -smoke     self-test: boot a 3-node in-process fleet, kill a
//	                  replica owner mid-trace, assert every request is
//	                  answered bit-identically, exit
//	efleet -sched     scheduling demo: register the E18 cluster's node and
//	                  task energy interfaces fleet-wide, run the
//	                  utilization / interface / carbon placement policies
//	                  against this fleet's router, print the comparison
//	                  table, exit (add -full for the ~4000-node cluster)
//
// GET /v1/stats on the router returns the fleet aggregate plus a per-node
// breakdown; every node response carries an X-Eisvc-Node header naming
// the daemon that served it. See docs/FLEET.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/experiments"
	"energyclarity/internal/fleet"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/nn"
	"energyclarity/internal/schedsvc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "efleet:", err)
		os.Exit(1)
	}
}

// stringList collects repeatable -load flags.
type stringList []string

func (l *stringList) String() string     { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("efleet", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7758", "router listen address")
	nodes := fs.Int("nodes", 3, "initial node count")
	replication := fs.Int("replication", 0, "ring owners per interface stack (0 = default 2)")
	vnodes := fs.Int("vnodes", 0, "ring points per node (0 = default 64)")
	workers := fs.Int("workers", 0, "concurrent evaluations per node (0 = one per CPU)")
	queue := fs.Int("queue", 0, "per-node admission queue depth limit (0 = default 64)")
	memo := fs.Int("memo", 0, "per-node memo cache capacity (0 = default 1024)")
	deadline := fs.Duration("deadline", 0, "per-node default queue-wait deadline (0 = 5s)")
	snapshotDir := fs.String("snapshot-dir", "", "persistent per-node cache snapshots: nodes warm-start from <dir>/<id>.eisnap and save on drain")
	fig1 := fs.Bool("fig1", false, "seed the calibrated Fig. 1 cnn_forward hardware interface fleet-wide")
	smoke := fs.Bool("smoke", false, "self-test: kill a replica owner mid-trace, then exit")
	sched := fs.Bool("sched", false, "run the E18 scheduling policy comparison against this fleet, then exit")
	schedFull := fs.Bool("full", false, "with -sched: the full ~4000-node, ~1M-task cluster")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM drain waits per node")
	var loads stringList
	fs.Var(&loads, "load", "register an .eil file fleet-wide at startup (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	f, err := fleet.New(fleet.Config{
		Nodes:        *nodes,
		Replication:  *replication,
		VirtualNodes: *vnodes,
		Node: eisvc.Config{
			Workers:         *workers,
			QueueLimit:      *queue,
			MemoCapacity:    *memo,
			DefaultDeadline: *deadline,
		},
		SnapshotDir: *snapshotDir,
	})
	if err != nil {
		return err
	}
	defer f.Close()

	if *fig1 || *smoke {
		if err := seedFig1(f); err != nil {
			return err
		}
		fmt.Fprintln(out, "efleet: seeded calibrated cnn_forward (Fig. 1 CNN on RTX4090) on every node")
	}
	for _, path := range loads {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		names, err := f.RegisterSource(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(out, "efleet: %s: registered %v fleet-wide\n", path, names)
	}

	if *smoke {
		return runSmoke(f, out)
	}
	if *sched {
		return runSched(f, !*schedFull, out)
	}

	rt, base, stop, err := f.StartRouter(*addr)
	if err != nil {
		return err
	}
	defer stop()
	fmt.Fprintf(out, "efleet: routing %d node(s) at %s\n", len(f.Nodes()), base)
	for _, n := range f.Nodes() {
		fmt.Fprintf(out, "efleet:   %s at %s\n", n.ID, n.URL)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	return serve(f, rt, *drainTimeout, *snapshotDir != "", sig, out)
}

// serve blocks until a shutdown signal, then drains every node: each
// daemon sheds new evaluations with 503 (so retrying clients fail over
// through the router while it lasts) and finishes its in-flight work
// before the fleet closes.
func serve(f *fleet.Fleet, rt *fleet.Router, drainTimeout time.Duration, snapshots bool, sig <-chan os.Signal, out io.Writer) error {
	s := <-sig
	fmt.Fprintf(out, "efleet: %v — draining %d node(s) (timeout %v)\n", s, len(f.LiveNodes()), drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for _, n := range f.LiveNodes() {
		wg.Add(1)
		go func(n *fleet.Node) {
			defer wg.Done()
			if err := n.Server.Drain(ctx); err != nil {
				fmt.Fprintf(out, "efleet: %s drain incomplete: %v\n", n.ID, err)
			}
		}(n)
	}
	wg.Wait()
	if snapshots {
		if err := f.SaveCacheSnapshots(); err != nil {
			fmt.Fprintf(out, "efleet: snapshot save failed: %v\n", err)
		} else {
			fmt.Fprintln(out, "efleet: cache snapshots saved")
		}
	}
	c := rt.Counters()
	fmt.Fprintf(out, "efleet: drained; routed %d request(s), %d failover(s); bye\n", c.Routed, c.Failovers)
	return nil
}

// seedFig1 registers the calibrated CNN hardware interface on the primary
// and replicates it (with the paper-verbatim Fig. 1 service source) to
// every node, so all replicas evaluate the identical stack at the
// identical version — the property that makes peer cache hits sound.
func seedFig1(f *fleet.Fleet) error {
	rig, err := experiments.Rig4090()
	if err != nil {
		return err
	}
	cnn, err := nn.CNNEnergyInterface(nn.Fig1CNN(), rig.Spec, rig.Coef.HardwareInterface())
	if err != nil {
		return err
	}
	if err := f.SeedInterface("cnn_forward", cnn); err != nil {
		return err
	}
	_, err = f.RegisterSource(mlservice.Fig1EIL)
	return err
}

// runSched drives the E18 scheduling comparison against this fleet: the
// scheduler registers the cluster's node-cost and task-demand interfaces
// through the router (primary + replication, like any other mutation)
// and then resolves every placement decision over the binary wire, one
// canonical evalbatch per scheduling round.
func runSched(f *fleet.Fleet, short bool, out io.Writer) error {
	_, base, stop, err := f.StartRouter("")
	if err != nil {
		return err
	}
	defer stop()

	cfg := experiments.E18Config(short)
	rounds := 12
	if short {
		rounds = 6
	}
	client := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
	client.Binary = true
	client.ID = "efleet-sched"
	s, err := schedsvc.New(cfg, client)
	if err != nil {
		return err
	}
	ctx := context.Background()
	if err := s.Register(ctx); err != nil {
		return err
	}
	fmt.Fprintf(out, "efleet: registered %d node and %d task energy interfaces fleet-wide (%d nodes, %d tasks)\n",
		len(cfg.Nodes), len(cfg.Tasks), cfg.TotalNodes(), cfg.TotalTasks())

	var results []schedsvc.Result
	for _, p := range []schedsvc.Policy{
		schedsvc.PolicyUtilization, schedsvc.PolicyInterface, schedsvc.PolicyCarbon,
	} {
		r, err := s.Run(ctx, p, rounds)
		if err != nil {
			return fmt.Errorf("policy %s: %w", p, err)
		}
		results = append(results, r)
		fmt.Fprintf(out, "efleet:   %-18s energy %v, carbon %.0f g, unmet %.2f%%, fleet items %d (%d cache-served)\n",
			r.Policy, r.Energy, r.CarbonGrams, 100*r.UnmetFraction(),
			r.Fleet.Items, r.Fleet.CacheServed)
	}
	again, err := s.Run(ctx, schedsvc.PolicyInterface, rounds)
	if err != nil {
		return err
	}
	iface, util := results[1], results[0]
	if iface.Energy >= util.Energy || iface.UnmetFraction() > util.UnmetFraction() {
		return fmt.Errorf("sched: interface policy did not beat the baseline (energy %v vs %v, unmet %.4f vs %.4f)",
			iface.Energy, util.Energy, iface.UnmetFraction(), util.UnmetFraction())
	}
	if again.PlacementHash != iface.PlacementHash {
		return fmt.Errorf("sched: repeat run diverged (%016x vs %016x)",
			again.PlacementHash, iface.PlacementHash)
	}
	fmt.Fprintf(out, "efleet: sched ok — interface-driven placement saves %.1f%% energy at better QoS; carbon-aware cuts a further %.1f%% emissions; repeat run bit-identical (digest %016x)\n",
		100*(1-float64(iface.Energy)/float64(util.Energy)),
		100*(1-results[2].CarbonGrams/iface.CarbonGrams),
		iface.PlacementHash)
	return nil
}

// smokeRequest builds request class k of the smoke trace.
func smokeRequest(k int) []core.Value {
	return []core.Value{core.Record(map[string]core.Value{
		"image":  core.Num(float64(k)),
		"pixels": core.Num(640 * 480),
		"zeros":  core.Num(float64(1000 * (k + 1))),
	})}
}

// runSmoke is the fleet self-test: record fault-free reference answers
// through the router, kill a replica owner of the serving stack a third
// of the way into a retrying Zipf trace, and require every request to be
// answered bit-identically to the reference — node loss may cost
// failovers and retries, never answers.
func runSmoke(f *fleet.Fleet, out io.Writer) error {
	rt, base, stop, err := f.StartRouter("")
	if err != nil {
		return err
	}
	defer stop()

	const (
		classes   = 8
		clients   = 3
		perClient = 16
		samples   = 256
		seed      = 7
	)
	opts := core.MonteCarlo(samples, seed)

	ref := make([]energy.Dist, classes)
	warm := eisvc.NewClient(base)
	warm.ID = "fleet-smoke-warm"
	for k := 0; k < classes; k++ {
		d, _, err := warm.EvalCtx(context.Background(), "ml_webservice", "handle", smokeRequest(k), opts)
		if err != nil {
			return fmt.Errorf("smoke reference class %d: %w", k, err)
		}
		ref[k] = d
	}

	victim := f.OwnersOf("ml_webservice")[0]
	total := clients * perClient
	var (
		started    atomic.Int64
		killOnce   sync.Once
		mu         sync.Mutex
		mismatches int
		retries    uint64
		firstErr   error
		wg         sync.WaitGroup
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			c := eisvc.NewClient(base)
			c.ID = fmt.Sprintf("fleet-smoke-%d", cl)
			c.Timeout = 500 * time.Millisecond
			c.Retry = (&eisvc.RetryPolicy{
				MaxAttempts: 8,
				BaseDelay:   2 * time.Millisecond,
				MaxDelay:    50 * time.Millisecond,
			}).Seed(int64(900 + cl))
			zipf := rand.NewZipf(rand.New(rand.NewSource(int64(40+cl))), 1.2, 1, classes-1)
			for i := 0; i < perClient; i++ {
				if started.Add(1) == int64(total/3) {
					killOnce.Do(func() { _ = f.KillNode(victim) })
				}
				k := int(zipf.Uint64())
				d, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", smokeRequest(k), opts)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("smoke class %d after killing %s: %w", k, victim, err)
					}
				} else if !d.Equal(ref[k], 0) {
					mismatches++
				}
				mu.Unlock()
			}
			cs := c.Counters()
			mu.Lock()
			retries += cs.Retries
			mu.Unlock()
		}(cl)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	if mismatches > 0 {
		return fmt.Errorf("smoke: %d answer(s) diverged from the pre-kill reference", mismatches)
	}
	if n, ok := f.Node(victim); !ok || n.Live() {
		return errors.New("smoke: the victim node was never killed")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	fs := rt.Stats(ctx)
	rc := rt.Counters()
	fmt.Fprintf(out, "efleet: fleet-smoke ok — %d/%d answered bit-identically after killing %s; %d live node(s), %d failover(s), %d client retries, %d eval(s), %d memo hit(s), %d peer hit(s, counted per key)\n",
		total, total, victim, fs.LiveNodes, rc.Failovers, retries,
		fs.Aggregate.Evaluations, fs.Aggregate.MemoHits, fs.Aggregate.PeerHits)
	return nil
}
