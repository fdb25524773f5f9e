// Command eid is the energy-interface daemon: a long-running service that
// plays the Fig. 2 resource-manager role over a network boundary. It holds
// a registry of bound energy-interface stacks, evaluates them on demand in
// all five modes behind a memoization cache, sheds load instead of
// queueing without bound, and attributes evaluated joules per client.
//
// Usage:
//
//	eid [-addr host:port] [-workers n] [-queue n] [-memo n] [-layer n]
//	    [-no-layer-cache] [-deadline d] [-max-samples n] [-fig1]
//	    [-recal] [-drift-window n] [-recal-interval d]
//	    [-snapshot file.eisnap] [-snapshot-interval d]
//	    [-drain-timeout d] [-load file.eil]...
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops admitting
// new evaluations (shedding them with 503 + Retry-After so retrying
// clients fail over), waits up to -drain-timeout for in-flight
// evaluations to finish, then shuts the listener down.
//
// With -fig1 the daemon seeds a calibrated "cnn_forward" hardware
// interface (the Fig. 1 CNN priced on the canonical RTX 4090 rig), so the
// paper-verbatim mlservice.Fig1EIL source registers as-is. See docs/EID.md
// for the endpoint reference.
//
// With -recal (requires the seeded rig) the daemon continuously
// calibrates: a background loop probes the live device through an nvml
// meter, compares against the interface's predictions, and on a drift
// verdict re-runs the microbenchmarks and installs fresh coefficients via
// a version-bumping rebind. /v1/drift and /v1/healthz expose the detector
// and the calibration generation registry; see docs/DRIFT.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/drift"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "eid:", err)
		os.Exit(1)
	}
}

// stringList collects repeatable -load flags.
type stringList []string

func (l *stringList) String() string     { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("eid", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7757", "listen address")
	workers := fs.Int("workers", 0, "concurrent evaluations (0 = one per CPU)")
	queue := fs.Int("queue", 0, "admission queue depth limit (0 = default 64)")
	memo := fs.Int("memo", 0, "memo cache capacity (0 = default 1024)")
	layer := fs.Int("layer", 0, "compositional layer-cache capacity (0 = default)")
	noLayer := fs.Bool("no-layer-cache", false, "disable the compositional layer cache")
	deadline := fs.Duration("deadline", 0, "default queue-wait deadline (0 = 5s)")
	maxSamples := fs.Int("max-samples", 0, "per-request Monte Carlo sample cap (0 = default)")
	fig1 := fs.Bool("fig1", false, "seed the calibrated Fig. 1 cnn_forward hardware interface")
	recal := fs.Bool("recal", false, "monitor the seeded rig for drift and recalibrate automatically (requires -fig1)")
	driftWindow := fs.Int("drift-window", 0, "drift monitor warmup window in samples (0 = default 8)")
	recalInterval := fs.Duration("recal-interval", time.Second, "drift probe interval")
	snapshot := fs.String("snapshot", "", "persistent cache snapshot file: load at boot (cold start if missing or corrupt), rewrite periodically and on drain")
	snapInterval := fs.Duration("snapshot-interval", time.Minute, "how often -snapshot is rewritten while serving")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "how long a SIGTERM drain waits for in-flight evaluations")
	var loads stringList
	fs.Var(&loads, "load", "register an .eil file at startup (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := eisvc.NewServer(eisvc.Config{
		Workers:         *workers,
		QueueLimit:      *queue,
		MemoCapacity:    *memo,
		LayerCapacity:   *layer,
		NoLayerCache:    *noLayer,
		DefaultDeadline: *deadline,
		MaxSamples:      *maxSamples,
	})
	var rig *microbench.Rig
	if *fig1 {
		var err error
		if rig, err = seedFig1(srv); err != nil {
			return err
		}
		fmt.Fprintln(out, "eid: seeded calibrated cnn_forward (Fig. 1 CNN on RTX4090)")
	}
	if *recal {
		if rig == nil {
			return fmt.Errorf("-recal needs a live device to probe: pass -fig1")
		}
		if err := attachDrift(srv, rig, *driftWindow); err != nil {
			return err
		}
		fmt.Fprintf(out, "eid: continuous calibration armed (warmup %d, probe interval %v)\n",
			*driftWindow, *recalInterval)
	}
	for _, path := range loads {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		names, err := srv.Registry().RegisterSource(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(out, "eid: %s: registered %v\n", path, names)
	}

	if *snapshot != "" {
		memoN, layerN, err := srv.LoadCacheSnapshot(*snapshot)
		switch {
		case err == nil:
			fmt.Fprintf(out, "eid: warm start: %d memo + %d layer entries from %s\n", memoN, layerN, *snapshot)
		case os.IsNotExist(err):
			fmt.Fprintf(out, "eid: no snapshot at %s yet; starting cold\n", *snapshot)
		default:
			// Corruption is detected, logged, and ignored: never serve from
			// a file that fails verification.
			fmt.Fprintf(out, "eid: snapshot rejected (%v); starting cold\n", err)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if *snapshot != "" {
		stopSnap := srv.StartSnapshotLoop(*snapshot, *snapInterval, func(err error) {
			fmt.Fprintf(out, "eid: snapshot save failed: %v\n", err)
		})
		// Runs after serve's drain completes: the final on-drain snapshot.
		defer stopSnap()
	}
	fmt.Fprintf(out, "eid: serving on http://%s (%d interface(s) registered)\n",
		ln.Addr(), srv.Registry().Len())
	if *recal {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() { _ = srv.RunDriftLoop(ctx, *recalInterval) }()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	return serve(srv, ln, *drainTimeout, sig, out)
}

// serve runs the daemon until the listener fails or a shutdown signal
// arrives, then drains: evaluation endpoints shed 503 immediately,
// in-flight evaluations get up to drainTimeout to finish, and the HTTP
// server shuts down once they have. Split from run (with an injectable
// signal channel) so the drain path is testable without real signals.
func serve(srv *eisvc.Server, ln net.Listener, drainTimeout time.Duration, sig <-chan os.Signal, out io.Writer) error {
	hs := eisvc.NewHTTPServer(srv)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case s := <-sig:
		fmt.Fprintf(out, "eid: %v — draining (timeout %v)\n", s, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			// Evaluations still stuck at the deadline: report and shut
			// down anyway — the timeout exists so shutdown is bounded.
			fmt.Fprintf(out, "eid: drain incomplete: %v\n", err)
		}
		if err := hs.Shutdown(ctx); err != nil {
			_ = hs.Close()
		}
		fmt.Fprintln(out, "eid: drained; bye")
		return nil
	}
}

// seedFig1 registers the calibrated CNN hardware interface under the name
// mlservice.Fig1EIL's 'uses' clause expects, and returns the rig so a
// drift controller can keep probing the same silicon the calibration was
// fitted against.
func seedFig1(srv *eisvc.Server) (*microbench.Rig, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	cnn, err := nn.CNNEnergyInterface(nn.Fig1CNN(), rig.Spec, rig.Coef.HardwareInterface())
	if err != nil {
		return nil, err
	}
	if _, err := srv.Registry().RegisterInterface("cnn_forward", cnn); err != nil {
		return nil, err
	}
	return rig, nil
}

// driftProbeClasses are the abstract inputs the continuous-calibration
// probe rotates through: distinct CNN request shapes, so an input-local
// divergence is attributable to the offending class while device-wide
// drift moves all of them together.
var driftProbeClasses = []struct {
	name          string
	pixels, zeros float64
}{
	{"forward/qvga", 320 * 240, 1e4},
	{"forward/vga", 640 * 480, 3e4},
	{"forward/hd", 1280 * 720, 1e5},
}

// attachDrift arms continuous calibration on the seeded rig: the probe
// runs a real CNN forward pass on the live GPU, meters it through the
// nvml counter, and compares against the registered interface's
// prediction; recalibration re-runs the microbenchmarks on the same GPU
// and installs the fresh fit through a version-bumping rebind of
// cnn_forward's "hw" binding.
func attachDrift(srv *eisvc.Server, rig *microbench.Rig, warmup int) error {
	engine, err := nn.NewCNNEngine(nn.Fig1CNN(), rig.GPU)
	if err != nil {
		return err
	}
	meter := nvml.NewMeter(rig.GPU)
	deviceName := "gpu_" + rig.Spec.Name
	var turn atomic.Uint64
	ctl, err := drift.NewController(drift.NewMonitor(drift.Config{Warmup: warmup}), drift.Hooks{
		Probe: func() (string, energy.Joules, energy.Joules, error) {
			cl := driftProbeClasses[turn.Add(1)%uint64(len(driftProbeClasses))]
			iface, _, ok := srv.Registry().Get("cnn_forward")
			if !ok {
				return "", 0, 0, fmt.Errorf("cnn_forward unregistered")
			}
			pred, err := iface.ExpectedJoules("forward", core.Num(cl.pixels), core.Num(cl.zeros))
			if err != nil {
				return "", 0, 0, err
			}
			s := meter.Snapshot()
			if _, _, err := engine.Forward(cl.pixels, cl.zeros); err != nil {
				return "", 0, 0, err
			}
			measured := meter.EnergySince(s)
			// Cool toward ambient so thermal creep across probes stays
			// inside the detector's delta allowance.
			rig.GPU.Idle(0.4)
			return cl.name, pred, measured, nil
		},
		Recalibrate: func() (microbench.Coefficients, error) {
			return microbench.Calibrate(rig.GPU, microbench.CalibrationRepeats)
		},
		Install: func(coef microbench.Coefficients) (uint64, error) {
			return srv.InstallCalibration("cnn_forward", "hw", deviceName, coef.HardwareInterface())
		},
		Clock: rig.GPU.Now,
	})
	if err != nil {
		return err
	}
	_, ver, _ := srv.Registry().Get("cnn_forward")
	ctl.SeedGeneration(rig.Coef, ver)
	srv.AttachDrift(ctl)
	return nil
}
