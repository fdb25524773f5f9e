package experiments

import (
	"fmt"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
)

// E9 turns §2's observation — resource-manager decisions like processor
// frequency change system state, which changes what an operation costs —
// into a runnable decision problem: per-operating-point energy interfaces
// let a resource manager pick the energy-optimal GPU clock *per workload
// phase*, a priori. The interesting physics: memory-bound decode barely
// slows down at a lower core clock (the VRAM domain sets the pace) but its
// dynamic energy drops with v², while compute-bound prefill pays real time
// (and therefore static energy) for a lower clock. The optimal frequency
// differs by phase, and the interface sees it before running anything.

// E9Point is one (workload, operating point) cell.
type E9Point struct {
	Workload  string
	Scale     float64
	Predicted energy.Joules
	Measured  energy.Joules
	RelErr    float64
}

// E9Result is the full sweep plus the decisions taken from it.
type E9Result struct {
	Points []E9Point
	// Per-workload optimal scale chosen from interface predictions, the
	// measured energy at that choice, and the measured energy at max clock.
	Decisions []E9Decision
}

// E9Decision is the interface-guided frequency choice for one workload.
type E9Decision struct {
	Workload      string
	ChosenScale   float64
	EnergyChosen  energy.Joules // measured at the chosen scale
	EnergyMaxClk  energy.Joules // measured at scale 1
	Savings       float64
	SlowdownRatio float64 // measured duration ratio (chosen / max clock)
}

// Table renders E9.
func (r *E9Result) Table() *Table {
	t := &Table{
		ID:     "E9",
		Title:  "DVFS from interfaces (§2): per-phase energy-optimal GPU clock",
		Header: []string{"workload", "clock scale", "predicted", "measured", "error"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			p.Workload, fmt.Sprintf("%.2f", p.Scale),
			p.Predicted.String(), p.Measured.String(), pct(p.RelErr),
		})
	}
	for _, d := range r.Decisions {
		t.Notes = append(t.Notes, fmt.Sprintf(
			"%s: interface picks scale %.2f — saves %s vs max clock (%.1f%%) at %.2fx duration",
			d.Workload, d.ChosenScale, (d.EnergyMaxClk-d.EnergyChosen).String(),
			100*d.Savings, d.SlowdownRatio))
	}
	return t
}

// e9Workload describes one phase-workload.
type e9Workload struct {
	name      string
	promptLen int
	newTokens int
}

func e9Workloads() []e9Workload {
	return []e9Workload{
		// Compute-bound: one big prefill, no decode.
		{name: "prefill-512", promptLen: 512, newTokens: 0},
		// Memory-bound: long autoregressive decode.
		{name: "decode-200", promptLen: 16, newTokens: 200},
	}
}

// E9DVFS calibrates the 4090 at every operating point, builds a stack
// interface per point, predicts both workloads at each, verifies against
// measurement, and reports the interface-guided frequency decisions.
func E9DVFS() (*E9Result, error) {
	base := gpusim.RTX4090()
	res := &E9Result{}
	type opPoint struct {
		scale float64
		iface *core.Interface
		gpu   *gpusim.GPU
	}
	// Per-operating-point calibration regressions are independent — each
	// worker owns a fresh GPU instance built from the shared spec and seed
	// (identical silicon, untouched state) — so they fan out across
	// workers with trajectories identical to the sequential sweep.
	points := make([]opPoint, len(base.DVFSScales))
	err := forEachIndexed(len(base.DVFSScales), func(i int) error {
		scale := base.DVFSScales[i]
		g := gpusim.NewGPU(base, microbench.Seed4090)
		if err := g.SetDVFSScale(scale); err != nil {
			return err
		}
		coef, err := microbench.CalibrateSpec(g, microbench.CalibrationRepeats, base.AtScale(scale))
		if err != nil {
			return err
		}
		iface, err := nn.StackInterface(nn.GPT2Small(), coef.DeviceInterface(base.AtScale(scale)))
		if err != nil {
			return err
		}
		points[i] = opPoint{scale: scale, iface: iface, gpu: g}
		return nil
	})
	if err != nil {
		return nil, err
	}

	for _, w := range e9Workloads() {
		type outcome struct {
			scale     float64
			predicted energy.Joules
			measured  energy.Joules
			duration  float64
		}
		var outs []outcome
		for _, op := range points {
			pred, err := op.iface.ExpectedJoules("generate",
				core.Num(float64(w.promptLen)), core.Num(float64(w.newTokens)))
			if err != nil {
				return nil, err
			}
			eng, err := nn.NewEngine(nn.GPT2Small(), op.gpu)
			if err != nil {
				return nil, err
			}
			op.gpu.Idle(1.0)
			meter := nvml.NewMeter(op.gpu)
			snap := meter.Snapshot()
			st, err := eng.Generate(w.promptLen, w.newTokens)
			if err != nil {
				return nil, err
			}
			meas := meter.EnergySince(snap)
			outs = append(outs, outcome{
				scale: op.scale, predicted: pred, measured: meas, duration: st.Duration,
			})
			res.Points = append(res.Points, E9Point{
				Workload: w.name, Scale: op.scale,
				Predicted: pred, Measured: meas,
				RelErr: energy.RelativeError(pred, meas),
			})
		}
		// Decide from predictions; evaluate the decision on measurements.
		best := 0
		for i, o := range outs {
			if o.predicted < outs[best].predicted {
				best = i
			}
		}
		var maxClk outcome
		for _, o := range outs {
			if o.scale == 1.0 {
				maxClk = o
			}
		}
		d := E9Decision{
			Workload:     w.name,
			ChosenScale:  outs[best].scale,
			EnergyChosen: outs[best].measured,
			EnergyMaxClk: maxClk.measured,
		}
		if maxClk.measured > 0 {
			d.Savings = 1 - float64(outs[best].measured)/float64(maxClk.measured)
		}
		if maxClk.duration > 0 {
			d.SlowdownRatio = outs[best].duration / maxClk.duration
		}
		res.Decisions = append(res.Decisions, d)
	}
	return res, nil
}
