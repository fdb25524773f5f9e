package experiments

import (
	"energyclarity/internal/core"
	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
	"energyclarity/internal/profile"
)

// --- E6: §6 open question — how does leaf inaccuracy propagate upward? ---

// E6Epsilons are the injected leaf-coefficient error magnitudes.
var E6Epsilons = []float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.16}

// E6Point is one injected-error level.
type E6Point struct {
	Epsilon float64
	// TopErrCorrelated: all leaf coefficients shifted by +ε (worst case).
	TopErrCorrelated float64
	// TopErrAlternating: signs alternate across coefficients, allowing
	// partial cancellation.
	TopErrAlternating float64
}

// E6Result is the propagation curve.
type E6Result struct {
	Points []E6Point
}

// Table renders E6.
func (r *E6Result) Table() *Table {
	t := &Table{
		ID:     "E6",
		Title:  "Composition error propagation: leaf coefficient error ε → top-of-stack error",
		Header: []string{"leaf ε", "top error (correlated +ε)", "top error (alternating ±ε)"},
		Notes: []string{
			"correlated errors propagate ≈1:1; independent-signed errors partially cancel (§6 open question)",
		},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{pct(p.Epsilon), pct(p.TopErrCorrelated), pct(p.TopErrAlternating)})
	}
	return t
}

// E6ErrorPropagation perturbs the calibrated leaf (hardware) coefficients
// by ε and measures how far the top-of-stack GPT-2 prediction moves from
// the unperturbed prediction.
func E6ErrorPropagation() (*E6Result, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	base, err := nn.StackInterface(nn.GPT2Small(), rig.Device)
	if err != nil {
		return nil, err
	}
	args := []core.Value{core.Num(16), core.Num(100)}
	baseJ, err := base.ExpectedJoules("generate", args...)
	if err != nil {
		return nil, err
	}

	perturbed := func(signs [5]float64, eps float64) (energy.Joules, error) {
		c := rig.Coef
		c.Instr = energy.Joules(float64(c.Instr) * (1 + signs[0]*eps))
		c.L1 = energy.Joules(float64(c.L1) * (1 + signs[1]*eps))
		c.L2 = energy.Joules(float64(c.L2) * (1 + signs[2]*eps))
		c.VRAM = energy.Joules(float64(c.VRAM) * (1 + signs[3]*eps))
		c.Static = energy.Watts(float64(c.Static) * (1 + signs[4]*eps))
		iface, err := nn.StackInterface(nn.GPT2Small(), c.DeviceInterface(rig.Spec))
		if err != nil {
			return 0, err
		}
		return iface.ExpectedJoules("generate", args...)
	}

	res := &E6Result{}
	for _, eps := range E6Epsilons {
		corr, err := perturbed([5]float64{1, 1, 1, 1, 1}, eps)
		if err != nil {
			return nil, err
		}
		alt, err := perturbed([5]float64{1, -1, 1, -1, 1}, eps)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, E6Point{
			Epsilon:           eps,
			TopErrCorrelated:  energy.RelativeError(corr, baseJ),
			TopErrAlternating: energy.RelativeError(alt, baseJ),
		})
	}
	return res, nil
}

// --- E7: §2 contrast — interfaces vs profiling-based power models ---

// E7TrainMax is the largest generation length in the profiling set; test
// lengths beyond it are out of distribution.
const E7TrainMax = 50

// E7TestTokens are the evaluation generation lengths.
var E7TestTokens = []int{20, 40, 100, 200, 500, 900}

// E7Point compares both predictors at one generation length.
type E7Point struct {
	Tokens         int
	OutOfDist      bool
	Measured       energy.Joules
	InterfaceErr   float64
	RegressionErr  float64
	RegressionPred energy.Joules
}

// E7Result is the comparison curve.
type E7Result struct {
	Points []E7Point
}

// Table renders E7.
func (r *E7Result) Table() *Table {
	t := &Table{
		ID:     "E7",
		Title:  "Energy interface vs profiling-based regression (trained on ≤50-token runs)",
		Header: []string{"tokens", "regime", "interface error", "regression error"},
		Notes: []string{
			"regression: energy ~ a·tokens + b, fit on 5..50-token profiling runs (§2's empirical modelling)",
		},
	}
	for _, p := range r.Points {
		regime := "in-dist"
		if p.OutOfDist {
			regime = "out-of-dist"
		}
		t.Rows = append(t.Rows, []string{cell(p.Tokens), regime, pct(p.InterfaceErr), pct(p.RegressionErr)})
	}
	return t
}

// E7Profiling trains the regression baseline on short generations and
// compares both predictors across short and long generations.
func E7Profiling() (*E7Result, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	iface, err := nn.StackInterface(nn.GPT2Small(), rig.Device)
	if err != nil {
		return nil, err
	}
	eng, err := nn.NewEngine(nn.GPT2Small(), rig.GPU)
	if err != nil {
		return nil, err
	}
	meter := nvml.NewMeter(rig.GPU)
	measure := func(tokens int) (energy.Joules, error) {
		rig.GPU.Idle(0.5)
		snap := meter.Snapshot()
		if _, err := eng.Generate(16, tokens); err != nil {
			return 0, err
		}
		return meter.EnergySince(snap), nil
	}

	// Profiling phase.
	var xs [][]float64
	var ys []float64
	for tok := 5; tok <= E7TrainMax; tok += 5 {
		m, err := measure(tok)
		if err != nil {
			return nil, err
		}
		xs = append(xs, []float64{float64(tok)})
		ys = append(ys, float64(m))
	}
	model, err := profile.Fit(xs, ys)
	if err != nil {
		return nil, err
	}

	res := &E7Result{}
	for _, tok := range E7TestTokens {
		meas, err := measure(tok)
		if err != nil {
			return nil, err
		}
		pred, err := iface.ExpectedJoules("generate", core.Num(16), core.Num(float64(tok)))
		if err != nil {
			return nil, err
		}
		reg := energy.Joules(model.Predict([]float64{float64(tok)}))
		res.Points = append(res.Points, E7Point{
			Tokens:         tok,
			OutOfDist:      tok > E7TrainMax,
			Measured:       meas,
			InterfaceErr:   energy.RelativeError(pred, meas),
			RegressionErr:  energy.RelativeError(reg, meas),
			RegressionPred: reg,
		})
	}
	return res, nil
}
