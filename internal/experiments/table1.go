package experiments

import (
	"fmt"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
	"energyclarity/internal/nvml"
)

// Table1TokenCounts are the generation lengths probed for Table 1
// ("generating up to 200 tokens", §5).
var Table1TokenCounts = []int{10, 25, 50, 75, 100, 125, 150, 175, 200}

// Table1PromptLen is the prompt length for every Table 1 run.
const Table1PromptLen = 16

// Table1Row is one device's result.
type Table1Row struct {
	Device string
	AvgErr float64
	MaxErr float64
	PerRun []Table1Run
}

// Table1Run is one generation length's prediction-vs-measurement pair.
type Table1Run struct {
	Tokens    int
	Predicted energy.Joules
	Measured  energy.Joules
	RelErr    float64
}

// Table1Result holds both devices' rows.
type Table1Result struct {
	Rows []Table1Row
}

// Table renders the paper-style two-row table.
func (r *Table1Result) Table() *Table {
	t := &Table{
		ID:     "T1",
		Title:  "Relative energy prediction error, single GPT-2 inference (≤200 tokens)",
		Header: []string{"GPU", "Average error", "Max error"},
		Notes: []string{
			"paper reports RTX4090 0.70%/0.93%, RTX3070 6.06%/8.11%",
			fmt.Sprintf("prompt %d tokens; generation lengths %v", Table1PromptLen, Table1TokenCounts),
		},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Device, pct(row.AvgErr), pct(row.MaxErr)})
	}
	return t
}

// Table1 reproduces the paper's Table 1: derive each GPU's hardware energy
// interface via microbenchmark calibration, compose the GPT-2 interface on
// top, predict single-inference energy for each generation length, measure
// the actual inference with the (simulated) NVML meter, and report the
// average and maximum relative error per device. The two device rows run
// concurrently (each builds its own rig), as do the per-generation-length
// runs within a row.
func Table1() (*Table1Result, error) {
	mks := []func() (*microbench.Rig, error){microbench.Rig4090, microbench.Rig3070}
	rows := make([]Table1Row, len(mks))
	err := forEachIndexed(len(mks), func(i int) error {
		rig, err := mks[i]()
		if err != nil {
			return err
		}
		row, err := table1Device(rig)
		if err != nil {
			return err
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Table1Result{Rows: rows}, nil
}

func table1Device(rig *microbench.Rig) (Table1Row, error) {
	iface, err := nn.StackInterface(nn.GPT2Small(), rig.Device)
	if err != nil {
		return Table1Row{}, err
	}
	runs := make([]Table1Run, len(Table1TokenCounts))
	err = forEachIndexed(len(Table1TokenCounts), func(k int) error {
		tok := Table1TokenCounts[k]
		// Each run measures on its own replica of the rig's silicon:
		// gpusim.GPU is stateful (thermal and clock drift), so sharing
		// rig.GPU across workers would both race and entangle the runs'
		// trajectories. A replica starting from idle is exactly the lab
		// methodology of letting the device return to idle temperature
		// between runs — and it makes every run's ground truth independent
		// of scheduling, so Table 1 is identical at any parallelism.
		gpu := rig.Replica()
		eng, err := nn.NewEngine(nn.GPT2Small(), gpu)
		if err != nil {
			return err
		}
		meter := nvml.NewMeter(gpu)
		gpu.Idle(1.0)
		predicted, err := iface.ExpectedJoules("generate",
			core.Num(Table1PromptLen), core.Num(float64(tok)))
		if err != nil {
			return err
		}
		snap := meter.Snapshot()
		if _, err := eng.Generate(Table1PromptLen, tok); err != nil {
			return err
		}
		measured := meter.EnergySince(snap)
		runs[k] = Table1Run{
			Tokens: tok, Predicted: predicted, Measured: measured,
			RelErr: energy.RelativeError(predicted, measured),
		}
		return nil
	})
	if err != nil {
		return Table1Row{}, err
	}
	row := Table1Row{Device: rig.Spec.Name, PerRun: runs}
	for _, run := range runs {
		row.AvgErr += run.RelErr
		if run.RelErr > row.MaxErr {
			row.MaxErr = run.RelErr
		}
	}
	row.AvgErr /= float64(len(runs))
	return row, nil
}
