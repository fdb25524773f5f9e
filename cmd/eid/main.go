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
//	eid -smoke        self-test: serve on a loopback port, register the
//	                  Fig. 1 interface, query it, assert a 200, exit
//	eid -optimize     drill POST /v1/optimize on a loopback port: sweep
//	                  the MoE stack's knob space, print the Pareto
//	                  frontier, assert the repeat sweep is memo-served
//	                  and bit-identical, exit
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops admitting
// new evaluations (shedding them with 503 + Retry-After so retrying
// clients fail over), waits up to -drain-timeout for in-flight
// evaluations to finish, then shuts the listener down.
//
// With -fig1 (implied by -smoke) the daemon seeds a calibrated
// "cnn_forward" hardware interface (the Fig. 1 CNN priced on the canonical
// RTX 4090 rig), so the paper-verbatim mlservice.Fig1EIL source registers
// as-is. See docs/EID.md for the endpoint reference.
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
	"energyclarity/internal/experiments"
	"energyclarity/internal/microbench"
	"energyclarity/internal/mlservice"
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
	recalInterval := fs.Duration("recal-interval", time.Second, "drift probe interval in serve mode")
	smoke := fs.Bool("smoke", false, "self-test against a loopback listener, then exit")
	optDrill := fs.Bool("optimize", false, "drill POST /v1/optimize against a loopback listener, then exit")
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
	var rig *experiments.Rig
	if *fig1 || *smoke {
		var err error
		if rig, err = seedFig1(srv); err != nil {
			return err
		}
		fmt.Fprintln(out, "eid: seeded calibrated cnn_forward (Fig. 1 CNN on RTX4090)")
	}
	if *recal {
		if rig == nil {
			return fmt.Errorf("-recal needs a live device to probe: pass -fig1 (or -smoke)")
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

	if *smoke {
		if err := runSmoke(srv, out); err != nil {
			return err
		}
		if *recal {
			return runDriftSmoke(srv, rig, out)
		}
		return nil
	}
	if *optDrill {
		return runOptimizeDrill(srv, out)
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
func seedFig1(srv *eisvc.Server) (*experiments.Rig, error) {
	rig, err := experiments.Rig4090()
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
func attachDrift(srv *eisvc.Server, rig *experiments.Rig, warmup int) error {
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
			// inside the detector's Delta allowance.
			rig.GPU.Idle(0.4)
			return cl.name, pred, measured, nil
		},
		Recalibrate: func() (microbench.Coefficients, error) {
			return microbench.Calibrate(rig.GPU, experiments.CalibrationRepeats)
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

// runDriftSmoke exercises the continuous-calibration path end to end on
// the smoke daemon: monitor to stable, age the silicon, and drive
// DriftStep until the daemon detects the drift and installs generation 2.
func runDriftSmoke(srv *eisvc.Server, rig *experiments.Rig, out io.Writer) error {
	ctx := context.Background()
	step := func(want func(*drift.ControllerStatus) bool, what string) (*drift.ControllerStatus, error) {
		for i := 0; i < 300; i++ {
			if err := srv.DriftStep(ctx); err != nil {
				return nil, fmt.Errorf("drift-smoke step: %w", err)
			}
			st := srv.DriftController().Status()
			if want(&st) {
				return &st, nil
			}
		}
		return nil, fmt.Errorf("drift-smoke: %s not reached in 300 steps", what)
	}
	if _, err := step(func(st *drift.ControllerStatus) bool {
		return st.Monitor.State == drift.StateStable
	}, "stable baseline"); err != nil {
		return err
	}
	rig.GPU.InjectAging(0.05) // the silicon ages 5% across the board
	st, err := step(func(st *drift.ControllerStatus) bool { return st.Generations >= 2 }, "recalibration")
	if err != nil {
		return err
	}
	gens := srv.DriftController().Generations()
	last := gens[len(gens)-1]
	if last.Reason != "drift" || last.Version == 0 {
		return fmt.Errorf("drift-smoke: bad generation %+v", last)
	}
	fmt.Fprintf(out, "eid: drift-smoke ok — aged 5%%, detected at sample %d, generation %d installed (version %d), %d detection(s)\n",
		last.DetectedAt, st.Generations, last.Version, st.Detections)
	return nil
}

// runSmoke exercises the whole serving path over real loopback HTTP: it
// registers the paper-verbatim Fig. 1 interface, evaluates it in expected
// and Monte Carlo modes (the second ask must be a memo hit), and checks
// the stats endpoint — any non-200 fails the run.
func runSmoke(srv *eisvc.Server, out io.Writer) error {
	base, stop, err := eisvc.ServeLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()

	c := eisvc.NewClient(base)
	c.ID = "serve-smoke"
	c.Deadline = 10 * time.Second

	infos, err := c.Register(mlservice.Fig1EIL)
	if err != nil {
		return fmt.Errorf("smoke register: %w", err)
	}
	fmt.Fprintf(out, "eid: registered %d interface(s) from Fig1EIL\n", len(infos))

	req := core.Record(map[string]core.Value{
		"image":  core.Num(1),
		"pixels": core.Num(640 * 480),
		"zeros":  core.Num(3e4),
	})
	args := []core.Value{req}
	d, _, err := c.Eval("ml_webservice", "handle", args, core.Expected())
	if err != nil {
		return fmt.Errorf("smoke eval (expected): %w", err)
	}
	fmt.Fprintf(out, "eid: E[handle] = %.6g J over %d support points\n", d.Mean(), d.Len())

	mc := core.MonteCarlo(2048, 7)
	if _, resp, err := c.Eval("ml_webservice", "handle", args, mc); err != nil {
		return fmt.Errorf("smoke eval (monte-carlo): %w", err)
	} else if resp.Cached {
		return fmt.Errorf("smoke: first monte-carlo eval claimed a memo hit")
	}
	dmc, resp, err := c.Eval("ml_webservice", "handle", args, mc)
	if err != nil {
		return fmt.Errorf("smoke eval (repeat): %w", err)
	}
	if !resp.Cached {
		return fmt.Errorf("smoke: repeated monte-carlo eval missed the memo")
	}

	// The binary codec must interoperate with the JSON path bit for bit:
	// the same ask through a binary client is memo-served with the exact
	// distribution the JSON client got.
	bc := eisvc.NewClient(base)
	bc.ID = "serve-smoke-bin"
	bc.Binary = true
	bd, bresp, err := bc.Eval("ml_webservice", "handle", args, mc)
	if err != nil {
		return fmt.Errorf("smoke eval (binary): %w", err)
	}
	if !bresp.Cached {
		return fmt.Errorf("smoke: binary repeat missed the memo")
	}
	if !bd.Equal(dmc, 0) {
		return fmt.Errorf("smoke: binary answer differs from the JSON answer")
	}
	fmt.Fprintln(out, "eid: binary codec ok — memo-served, bit-identical to JSON")

	// Batch: two duplicates and one distinct ask in one round trip; the
	// duplicate must come back deduplicated, the rest must answer.
	batch := []eisvc.EvalRequest{
		c.EvalRequestFor("ml_webservice", "handle", args, core.Expected()),
		c.EvalRequestFor("ml_webservice", "handle", args, core.Expected()),
		c.EvalRequestFor("ml_webservice", "handle", args, core.WorstCase()),
	}
	items, err := c.EvalBatch(batch)
	if err != nil {
		return fmt.Errorf("smoke evalbatch: %w", err)
	}
	for i, it := range items {
		if it.Error != "" || it.Dist == nil {
			return fmt.Errorf("smoke evalbatch item %d: %+v", i, it)
		}
	}
	if !items[1].Deduped {
		return fmt.Errorf("smoke evalbatch: duplicate item not deduplicated")
	}

	// A pure-EIL interface (no Go-native bindings anywhere beneath it)
	// must be served through a compiled program, not the interpreter.
	// Fig. 1's handle cannot: its cnn binding is native, so it counts a
	// fallback instead — the smoke checks both paths are exercised.
	const pureEIL = `
interface accel_math {
  ecv boost: bernoulli(0.1) "DVFS boost active"
  func f(n) {
    let e = 2nJ * n * n
    if boost { return e * 1.5 }
    return e
  }
}`
	if _, err := c.Register(pureEIL); err != nil {
		return fmt.Errorf("smoke register (pure EIL): %w", err)
	}
	if _, _, err := c.Eval("accel_math", "f", []core.Value{core.Num(64)}, core.Expected()); err != nil {
		return fmt.Errorf("smoke eval (pure EIL): %w", err)
	}
	// n only meets arithmetic, so the program emitted for 64 serves every
	// other n: a sweep of new arguments runs compiled and emits nothing.
	const sweep = 8
	unswept, err := c.Stats()
	if err != nil {
		return fmt.Errorf("smoke stats: %w", err)
	}
	for n := 1; n <= sweep; n++ {
		if _, _, err := c.Eval("accel_math", "f", []core.Value{core.Num(64.5 + float64(n))}, core.Expected()); err != nil {
			return fmt.Errorf("smoke eval (pure EIL, n=%d): %w", n, err)
		}
	}
	swept, err := c.Stats()
	if err != nil {
		return fmt.Errorf("smoke stats: %w", err)
	}
	if got := swept.CompiledEvals - unswept.CompiledEvals; got != sweep {
		return fmt.Errorf("smoke: %d unique-argument evals counted %d compiled_evals", sweep, got)
	}
	if got := swept.Specializations - unswept.Specializations; got != 0 {
		return fmt.Errorf("smoke: %d unique data arguments emitted code %d times (specializations), want 0", sweep, got)
	}

	// Auto-optimizer: sweep the MoE stack's knob space through POST
	// /v1/optimize and pin the repeat-sweep contract.
	cold, again, err := optimizeDrill(c, out)
	if err != nil {
		return err
	}

	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("smoke stats: %w", err)
	}
	if err := checkOptimizeStats(st, cold, again); err != nil {
		return fmt.Errorf("smoke: %w", err)
	}
	if st.CompiledEvals == 0 {
		return fmt.Errorf("smoke: pure-EIL evaluation did not run compiled (compiled_evals = 0)")
	}
	if st.CompiledPrograms+st.CompileFallbacks == 0 {
		return fmt.Errorf("smoke: EIL evaluations reached neither the compiler nor its fallback")
	}
	fmt.Fprintf(out, "eid: serve-smoke ok — %d evals, %d memo hit(s), %d layer hit(s), %d compiled program(s), %d compiled eval(s) from %d specialization(s), %d fallback(s), %.4g J attributed to %q\n",
		st.EvalRequests, st.MemoHits, st.LayerHits, st.CompiledPrograms, st.CompiledEvals, st.Specializations, st.CompileFallbacks, st.AttribJ, c.ID)
	return nil
}

// drillOptimizeRequest is the knob space the smoke/optimize drills
// sweep: a 12-configuration slice of the MoE grid, small enough to stay
// fast, rich enough that the frontier and the SLO pick are non-trivial.
func drillOptimizeRequest() eisvc.OptimizeRequest {
	return eisvc.OptimizeRequest{
		Interface:     "moe_stack",
		EnergyMethod:  "energy",
		LatencyMethod: "latency",
		Knobs: []eisvc.OptimizeKnob{
			{Name: "batch", Values: []float64{1, 4, 16}},
			{Name: "level", Values: []float64{0, 2}},
			{Name: "replicas", Values: []float64{1, 4}},
		},
		SLOMs:     25,
		EnumLimit: 1 << 12,
	}
}

// optimizeDrill sweeps the MoE stack twice through POST /v1/optimize:
// the cold sweep must produce a frontier with an SLO pick that saves
// energy, the repeat must be bit-identical and entirely memo-served.
func optimizeDrill(c *eisvc.Client, out io.Writer) (cold, again *eisvc.OptimizeResponse, err error) {
	if _, err := c.Register(nn.MoEEIL); err != nil {
		return nil, nil, fmt.Errorf("optimize register: %w", err)
	}
	req := drillOptimizeRequest()
	cold, err = c.Optimize(req)
	if err != nil {
		return nil, nil, fmt.Errorf("optimize sweep: %w", err)
	}
	if len(cold.Frontier) < 2 || cold.Recommended == nil || cold.MaxPerf == nil {
		return nil, nil, fmt.Errorf("optimize: degenerate sweep: %+v", cold)
	}
	if cold.Recommended.LatencyMs > req.SLOMs {
		return nil, nil, fmt.Errorf("optimize: recommended p99 %.2f ms violates SLO %g ms",
			cold.Recommended.LatencyMs, req.SLOMs)
	}
	if cold.SavingsFrac <= 0 {
		return nil, nil, fmt.Errorf("optimize: SLO pick saves nothing: %+v", cold)
	}
	again, err = c.Optimize(req)
	if err != nil {
		return nil, nil, fmt.Errorf("optimize repeat: %w", err)
	}
	if again.Digest != cold.Digest {
		return nil, nil, fmt.Errorf("optimize: repeat digest %016x != %016x", again.Digest, cold.Digest)
	}
	if again.MemoServed != again.Evals {
		return nil, nil, fmt.Errorf("optimize: repeat sweep memo-served %d of %d evals",
			again.MemoServed, again.Evals)
	}
	fmt.Fprintf(out, "eid: optimize ok — %d configs, %d-point frontier, SLO pick saves %.1f%%, repeat memo-served (digest %016x)\n",
		cold.Configs, len(cold.Frontier), 100*cold.SavingsFrac, cold.Digest)
	return cold, again, nil
}

// checkOptimizeStats asserts /v1/stats accounts the drill's two sweeps:
// the counters must be present and mutually consistent.
func checkOptimizeStats(st *eisvc.StatsResponse, cold, again *eisvc.OptimizeResponse) error {
	if st.OptimizeRequests != 2 {
		return fmt.Errorf("optimize_requests = %d, want 2", st.OptimizeRequests)
	}
	if want := uint64(cold.Evals + again.Evals); st.OptimizeEvals != want {
		return fmt.Errorf("optimize_evals = %d, want %d", st.OptimizeEvals, want)
	}
	if st.OptimizeMemoServed < uint64(again.MemoServed) || st.OptimizeMemoServed > st.OptimizeEvals {
		return fmt.Errorf("optimize_memo_served = %d inconsistent (repeat served %d, evals %d)",
			st.OptimizeMemoServed, again.MemoServed, st.OptimizeEvals)
	}
	return nil
}

// runOptimizeDrill is eid -optimize: the optimizeDrill against a real
// loopback listener over the binary wire, plus the stats consistency
// check, as a standalone exit-code drill.
func runOptimizeDrill(srv *eisvc.Server, out io.Writer) error {
	base, stop, err := eisvc.ServeLoopback(srv)
	if err != nil {
		return err
	}
	defer stop()

	c := eisvc.NewClient(base)
	c.ID = "optimize-drill"
	c.Binary = true
	c.Deadline = 30 * time.Second
	cold, again, err := optimizeDrill(c, out)
	if err != nil {
		return err
	}
	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("optimize stats: %w", err)
	}
	if err := checkOptimizeStats(st, cold, again); err != nil {
		return err
	}
	best := cold.Recommended
	fmt.Fprintf(out, "eid: optimize-drill ok — recommended %v at %.4g J / %.2f ms p99 under %g ms SLO\n",
		best.Knobs, best.EnergyJ, best.LatencyMs, cold.SLOMs)
	return nil
}
