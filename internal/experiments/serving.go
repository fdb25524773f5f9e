package experiments

import (
	"fmt"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
)

// E10 is the serving-efficiency experiment: LLM decode streams the full
// model from VRAM once per step regardless of batch size, so batching
// amortizes the dominant energy cost over more tokens. The energy
// interface quantifies the joules-per-token curve (and its diminishing
// returns) before any deployment, letting a serving resource manager pick
// a batch size against an energy target and a latency budget.

// E10Batches is the sweep.
var E10Batches = []int{1, 2, 4, 8, 16, 32}

// E10 workload shape.
const (
	e10Prompt = 16
	e10Tokens = 50
	// e10LatencyBudget bounds the acceptable per-decode-step time.
	e10LatencyBudget = 2e-3 // seconds
)

// E10Point is one batch size's result.
type E10Point struct {
	Batch          int
	PredictedPerTk energy.Joules
	MeasuredPerTk  energy.Joules
	RelErr         float64
	PredLatency    float64 // datasheet-predicted mean decode-step seconds
	StepLatency    float64 // measured mean decode-step seconds
}

// E10Result is the sweep plus the interface-guided choice.
type E10Result struct {
	Points      []E10Point
	ChosenBatch int     // min predicted J/token with latency under budget
	SavingsVsB1 float64 // measured J/token reduction at the chosen batch
}

// Table renders E10.
func (r *E10Result) Table() *Table {
	t := &Table{
		ID:     "E10",
		Title:  "Serving batch size from interfaces: energy per generated token",
		Header: []string{"batch", "predicted J/token", "measured J/token", "error", "step latency"},
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			cell(p.Batch), p.PredictedPerTk.String(), p.MeasuredPerTk.String(),
			pct(p.RelErr), fmt.Sprintf("%.2f ms", 1e3*p.StepLatency),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"interface picks batch %d under a %.0f ms step-latency budget: %.1f%% less energy per token than batch 1",
		r.ChosenBatch, 1e3*e10LatencyBudget, 100*r.SavingsVsB1))
	return t
}

// E10BatchServing sweeps serving batch sizes on the 4090 rig.
func E10BatchServing() (*E10Result, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	cfg := nn.GPT2Small()
	iface, err := nn.StackInterface(cfg, rig.Device)
	if err != nil {
		return nil, err
	}
	if err := nn.AddBatchMethods(iface, cfg); err != nil {
		return nil, err
	}
	eng, err := nn.NewEngine(cfg, rig.GPU)
	if err != nil {
		return nil, err
	}
	meter := nvml.NewMeter(rig.GPU)

	res := &E10Result{}
	var measuredB1 energy.Joules
	bestPred := energy.Joules(0)
	for _, batch := range E10Batches {
		tokens := float64(batch * e10Tokens)
		pred, err := iface.ExpectedJoules("generate_batch",
			core.Num(float64(batch)), core.Num(e10Prompt), core.Num(e10Tokens))
		if err != nil {
			return nil, err
		}
		rig.GPU.Idle(1.0)
		snap := meter.Snapshot()
		st, err := eng.GenerateBatch(batch, e10Prompt, e10Tokens)
		if err != nil {
			return nil, err
		}
		meas := meter.EnergySince(snap)
		// Datasheet-side step latency, so the decision below uses only
		// quantities available before deployment.
		predLatency := 0.0
		for _, k := range nn.GPT2Small().DecodeKernelsBatch(e10Prompt+e10Tokens/2, batch) {
			tr := rig.Spec.SpecTraffic(k)
			predLatency += rig.Spec.SpecDuration(k, tr)
		}
		pt := E10Point{
			Batch:          batch,
			PredictedPerTk: pred / energy.Joules(tokens),
			MeasuredPerTk:  meas / energy.Joules(tokens),
			RelErr:         energy.RelativeError(pred, meas),
			PredLatency:    predLatency,
			StepLatency:    st.Duration / float64(e10Tokens),
		}
		res.Points = append(res.Points, pt)
		if batch == 1 {
			measuredB1 = pt.MeasuredPerTk
		}
		// Interface-guided decision: smallest predicted J/token whose
		// predicted step latency fits the budget. Only interface-side
		// (datasheet + calibration) quantities are consulted.
		if pt.PredLatency <= e10LatencyBudget &&
			(res.ChosenBatch == 0 || pt.PredictedPerTk < bestPred) {
			res.ChosenBatch = batch
			bestPred = pt.PredictedPerTk
		}
	}
	for _, pt := range res.Points {
		if pt.Batch == res.ChosenBatch && measuredB1 > 0 {
			res.SavingsVsB1 = 1 - float64(pt.MeasuredPerTk)/float64(measuredB1)
		}
	}
	return res, nil
}
