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
//
// On SIGTERM or SIGINT every node drains (and, with -snapshot-dir, saves
// its caches) before the process exits. GET /v1/stats on the router
// returns the fleet aggregate plus a per-node breakdown; every node
// response carries an X-Eisvc-Node header naming the daemon that served
// it. See docs/FLEET.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"energyclarity/internal/eisvc"
	"energyclarity/internal/fleet"
	"energyclarity/internal/microbench"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/nn"
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

	if *fig1 {
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
	rig, err := microbench.Rig4090()
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
