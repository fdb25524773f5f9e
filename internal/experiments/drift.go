package experiments

import (
	"fmt"
	"math"

	"energyclarity/internal/core"
	"energyclarity/internal/drift"
	"energyclarity/internal/energy"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
	"energyclarity/internal/trace"
	"energyclarity/internal/verify"
)

// E14 is the continuous-calibration experiment: a calibrated GPT-2 serving
// stack runs a Zipf trace while its GPU silently ages, so the once-correct
// coefficients go stale. The drift monitor watches the streaming
// (predicted, measured) residual, detects the shift within a bounded
// number of samples, classifies it as device-wide drift (not an
// input-dependent energy bug), re-runs the microbenchmarks, and installs
// the new fit through a version-bumping Rebind. An identical control
// device that does not age must never alarm, and the layer cache must
// stay bit-exact across the install: old-version answers unchanged,
// new-version answers never served from stale entries.

// E14 workload and drift shape.
const (
	e14Aging     = 0.05 // every hidden energy coefficient grows 5%
	e14Skew      = 1.2  // Zipf skew over the Table 1 generation lengths
	e14TraceSeed = 14
	e14IdleGap   = 0.4 // seconds of idle between probes, bounding thermal creep
	e14CacheTok  = 50  // generation length used for the cache bit-exactness proof
	e14Pre       = 24  // healthy samples before the device ages
	e14Post      = 32  // aged-serving samples after recalibration
)

// E14Result is the structured outcome.
type E14Result struct {
	// Detection.
	InjectAt    int    // monitor sample after which the device aged
	DetectedAt  int    // monitor sample at which the drift verdict latched
	DetectDelay int    // DetectedAt − InjectAt
	DetectBound int    // the configured worst-case delay
	Verdict     string // monitor state at detection ("drifting" expected)

	// Control device (same silicon, no aging).
	ControlSamples int
	FalsePositives int

	// Prediction error (mean |relative residual|) by phase.
	PreErr    float64 // healthy device, seed calibration
	FrozenErr float64 // aged device, frozen seed calibration
	RecalErr  float64 // aged device, recalibrated coefficients

	// Calibration registry and cache behaviour.
	Generations   int
	VersionBefore uint64
	VersionAfter  uint64
	CacheBitExact bool
	RecalResidual float64 // generation's post-install verification residual
}

// Table renders E14.
func (r *E14Result) Table() *Table {
	t := &Table{
		ID:     "E14",
		Title:  "Continuous calibration: drift detection and automated recalibration",
		Header: []string{"phase", "calibration", "mean |rel err|"},
		Rows: [][]string{
			{"healthy", "generation 0 (seed)", pct(r.PreErr)},
			{fmt.Sprintf("aged +%.0f%%", 100*e14Aging), "generation 0 (frozen)", pct(r.FrozenErr)},
			{fmt.Sprintf("aged +%.0f%%", 100*e14Aging), "generation 1 (recalibrated)", pct(r.RecalErr)},
		},
		Notes: []string{
			fmt.Sprintf("drift detected %d samples after aging (bound %d), verdict %q",
				r.DetectDelay, r.DetectBound, r.Verdict),
			fmt.Sprintf("control device: %d samples, %d false positives",
				r.ControlSamples, r.FalsePositives),
			fmt.Sprintf("recalibration installed a new interface version; layer cache bit-exact: %v",
				r.CacheBitExact),
		},
	}
	return t
}

// e14Prober wraps one device with everything a probe needs: the serving
// stack to predict with, the engine and meter to measure with, and the
// Zipf trace choosing the next request shape.
type e14Prober struct {
	stack *core.Interface
	eng   *nn.Engine
	meter *nvml.Meter
	gpu   *gpusim.GPU
	zipf  *trace.Zipf
}

func newE14Prober(stack *core.Interface, gpu *gpusim.GPU, seed int64) (*e14Prober, error) {
	eng, err := nn.NewEngine(nn.GPT2Small(), gpu)
	if err != nil {
		return nil, err
	}
	return &e14Prober{
		stack: stack,
		eng:   eng,
		meter: nvml.NewMeter(gpu),
		gpu:   gpu,
		zipf:  trace.NewZipf(uint64(len(Table1TokenCounts)), e14Skew, seed),
	}, nil
}

// probe serves one traced request: predict with the current stack, run the
// real inference under the meter, idle so thermal creep stays inside the
// detector's allowance, and report the abstract input class.
func (p *e14Prober) probe() (string, energy.Joules, energy.Joules, error) {
	tok := Table1TokenCounts[p.zipf.Next()]
	pred, err := p.stack.ExpectedJoules("generate",
		core.Num(Table1PromptLen), core.Num(float64(tok)))
	if err != nil {
		return "", 0, 0, err
	}
	snap := p.meter.Snapshot()
	if _, err := p.eng.Generate(Table1PromptLen, tok); err != nil {
		return "", 0, 0, err
	}
	meas := p.meter.EnergySince(snap)
	p.gpu.Idle(e14IdleGap)
	return fmt.Sprintf("generate/%d", tok), pred, meas, nil
}

// E14Drift runs the full cycle on the 4090 rig.
func E14Drift() (*E14Result, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	stack, err := nn.StackInterface(nn.GPT2Small(), rig.Device)
	if err != nil {
		return nil, err
	}
	frozen := stack // the seed calibration, never rebound

	// The production card is the one that was calibrated and will age; the
	// control card is identical silicon in pristine state that stays true
	// to its calibration.
	aged := rig.GPU
	agedProbe, err := newE14Prober(stack, aged, e14TraceSeed)
	if err != nil {
		return nil, err
	}
	control, err := newE14Prober(stack, rig.Replica(), e14TraceSeed+1)
	if err != nil {
		return nil, err
	}

	cfg := drift.Config{}
	ctl, err := drift.NewController(drift.NewMonitor(cfg), drift.Hooks{
		Probe: func() (string, energy.Joules, energy.Joules, error) {
			return agedProbe.probe()
		},
		Recalibrate: func() (microbench.Coefficients, error) {
			return microbench.Calibrate(aged, microbench.CalibrationRepeats)
		},
		Install: func(coef microbench.Coefficients) (uint64, error) {
			ns, err := agedProbe.stack.Rebind("hw", coef.DeviceInterface(rig.Spec))
			if err != nil {
				return 0, err
			}
			agedProbe.stack = ns
			return ns.Version(), nil
		},
		Clock: aged.Now,
	})
	if err != nil {
		return nil, err
	}
	ctl.SeedGeneration(rig.Coef, stack.Version())

	res := &E14Result{VersionBefore: stack.Version(), InjectAt: e14Pre}

	ctlMon := drift.NewMonitor(cfg)
	controlStep := func() error {
		in, p, m, err := control.probe()
		if err != nil {
			return err
		}
		if v := ctlMon.Ingest(in, p, m); v.State == drift.StateDrifting || v.State == drift.StateEnergyBug {
			res.FalsePositives++
		}
		res.ControlSamples++
		return nil
	}

	// Phase 1 — healthy serving: both monitors learn their baselines and
	// stay stable; record the seed calibration's prediction error.
	var preAbs float64
	for i := 0; i < e14Pre; i++ {
		v, err := ctl.Observe()
		if err != nil {
			return nil, err
		}
		preAbs += math.Abs(v.Residual)
		if err := controlStep(); err != nil {
			return nil, err
		}
	}
	res.PreErr = preAbs / float64(e14Pre)
	if st := ctl.Monitor().State(); st != drift.StateStable {
		return nil, fmt.Errorf("experiments: E14: monitor %v after %d healthy samples, want stable", st, e14Pre)
	}

	// Cache proof, part 1: with the layer cache attached, a repeated
	// evaluation is served from cache bit-exactly.
	lc := core.NewLayerCache(0)
	cacheArgs := []core.Value{core.Num(Table1PromptLen), core.Num(e14CacheTok)}
	cacheOpts := core.EvalOptions{Mode: core.ModeExpected, Layer: lc}
	d0, err := frozen.Eval("generate", cacheArgs, cacheOpts)
	if err != nil {
		return nil, err
	}
	d0warm, err := frozen.Eval("generate", cacheArgs, cacheOpts)
	if err != nil {
		return nil, err
	}
	warmHits := lc.Stats().Hits
	exact := d0.Equal(d0warm, 0) && warmHits > 0

	// Phase 2 — the silicon ages: every hidden coefficient grows, the
	// sensor keeps reporting, and the interface keeps confidently
	// answering with stale numbers until the monitor alarms.
	aged.InjectAging(e14Aging)
	// Worst case: the Page-Hinkley excursion needs Lambda/(shift−Delta)
	// samples to alarm, then classification may wait for in-window
	// evidence up to the monitor's deferral cap of 4× the class count.
	res.DetectBound = 4 + 4*len(Table1TokenCounts)
	for i := 0; i < res.DetectBound+8 && !ctl.NeedsRecal(); i++ {
		v, err := ctl.Observe()
		if err != nil {
			return nil, err
		}
		res.Verdict = v.State.String()
		if err := controlStep(); err != nil {
			return nil, err
		}
	}
	if !ctl.NeedsRecal() {
		return nil, fmt.Errorf("experiments: E14: drift not detected within %d samples (state %v)",
			res.DetectBound+8, ctl.Monitor().State())
	}
	res.DetectedAt = ctl.Monitor().Snapshot().DetectedAt
	res.DetectDelay = res.DetectedAt - res.InjectAt

	// Phase 3 — automated repair: refit against the live device, install
	// through the version-bumping rebind, start a fresh baseline.
	gen, err := ctl.Recalibrate("drift")
	if err != nil {
		return nil, err
	}
	res.Generations = len(ctl.Generations())
	res.VersionAfter = gen.Version
	res.RecalResidual = gen.Residual

	// Cache proof, part 2: the rebind bumped versions along the "hw" path,
	// so the recalibrated stack misses into fresh entries there (unchanged
	// sibling subtrees may still hit — that sharing is the point of
	// version-keyed memoization), its answer moves off the stale one, its
	// own repeats are bit-exact, and the old interface still answers
	// bit-identically — fixed version, fixed answer.
	recal := agedProbe.stack
	missesBefore := lc.Stats().Misses
	dNew, err := recal.Eval("generate", cacheArgs, cacheOpts)
	if err != nil {
		return nil, err
	}
	exact = exact && lc.Stats().Misses > missesBefore // rebound path: fresh entries
	hitsBefore := lc.Stats().Hits
	dNewWarm, err := recal.Eval("generate", cacheArgs, cacheOpts)
	if err != nil {
		return nil, err
	}
	exact = exact && dNew.Equal(dNewWarm, 0) && lc.Stats().Hits > hitsBefore
	dOldAgain, err := frozen.Eval("generate", cacheArgs, cacheOpts)
	if err != nil {
		return nil, err
	}
	exact = exact && dOldAgain.Equal(d0, 0) && !dNew.Equal(d0, 0)
	res.CacheBitExact = exact

	// Phase 4 — aged serving: the recalibrated stack must be back to
	// sub-percent error while the frozen seed calibration stays wrong by
	// about the aging factor.
	var frozenAbs, recalAbs float64
	for i := 0; i < e14Post; i++ {
		tok := Table1TokenCounts[agedProbe.zipf.Next()]
		args := []core.Value{core.Num(Table1PromptLen), core.Num(float64(tok))}
		predFrozen, err := frozen.ExpectedJoules("generate", args...)
		if err != nil {
			return nil, err
		}
		predRecal, err := recal.ExpectedJoules("generate", args...)
		if err != nil {
			return nil, err
		}
		snap := agedProbe.meter.Snapshot()
		if _, err := agedProbe.eng.Generate(Table1PromptLen, tok); err != nil {
			return nil, err
		}
		meas := agedProbe.meter.EnergySince(snap)
		aged.Idle(e14IdleGap)
		frozenAbs += math.Abs(verify.Residual(predFrozen, meas))
		recalAbs += math.Abs(verify.Residual(predRecal, meas))
		if err := controlStep(); err != nil {
			return nil, err
		}
	}
	res.FrozenErr = frozenAbs / float64(e14Post)
	res.RecalErr = recalAbs / float64(e14Post)
	return res, nil
}
