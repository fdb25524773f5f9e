package experiments

import (
	"fmt"
	"time"

	"energyclarity/internal/energy"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/microbench"
	"energyclarity/internal/nn"
	"energyclarity/internal/trace"
)

// E8 implements §3's remark that energy interfaces "could return power
// (i.e., energy per unit of time), or peak power, which can be useful for
// resource managers to optimize power provisioning and increase
// utilization of resources" — the datacenter-provisioning idea the paper
// cites from Fan et al. / Gilgur et al.
//
// The experiment: a rack hosts GPT-2 inference servers under a fixed power
// budget. Provisioning by nameplate power (every unit saturated at once —
// physically impossible for real kernels) strands capacity; provisioning by
// the interface's *predicted workload peak* admits more servers, and the
// measured peak confirms the prediction leaves the budget respected.

// E8RackBudget is the rack power budget.
const E8RackBudget = 50 * energy.Kilowatt

// E8Result compares the three provisioning bases.
type E8Result struct {
	Nameplate     energy.Watts // sum of all throughput×coefficient + static
	PredictedPeak energy.Watts // max over workload kernels, from the interface
	MeasuredPeak  energy.Watts // max observed on the device during serving
	AveragePower  energy.Watts // measured mean over the serving window

	ServersByNameplate int
	ServersByInterface int
	UtilizationGain    float64 // relative increase in admitted servers
}

// Table renders E8.
func (r *E8Result) Table() *Table {
	return &Table{
		ID:     "E8",
		Title:  "Power provisioning from interfaces (§3): peak power, not nameplate",
		Header: []string{"basis", "per-server power", "servers in a 50 kW rack"},
		Rows: [][]string{
			{"nameplate (all units saturated)", r.Nameplate.String(), cell(r.ServersByNameplate)},
			{"interface-predicted workload peak", r.PredictedPeak.String(), cell(r.ServersByInterface)},
			{"measured workload peak", r.MeasuredPeak.String(), "-"},
			{"measured workload average", r.AveragePower.String(), "-"},
		},
		Notes: []string{
			fmt.Sprintf("interface-based provisioning admits %.0f%% more servers; measured peak stays below the prediction basis", 100*r.UtilizationGain),
		},
	}
}

// E8PowerProvisioning runs the provisioning experiment on the 4090 rig.
func E8PowerProvisioning() (*E8Result, error) {
	rig, err := microbench.Rig4090()
	if err != nil {
		return nil, err
	}
	spec := rig.Spec
	coef := rig.Coef
	res := &E8Result{}

	// Nameplate: every execution unit at full rate simultaneously, plus
	// static power — the number a cautious operator provisions against.
	res.Nameplate = energy.Watts(spec.InstrPerSec*float64(coef.Instr)+
		spec.L1PerSec*float64(coef.L1)+
		spec.L2PerSec*float64(coef.L2)+
		spec.VRAMPerSec*float64(coef.VRAM)) + coef.Static

	// Predicted workload peak: evaluate the serving mix's kernels through
	// the calibrated interface and take the maximum instantaneous power
	// (kernel energy over kernel duration). The mix is the E-serving
	// workload: prompts of 16, generation lengths from the token-length
	// distribution.
	cfg := nn.GPT2Small()
	lengths := trace.NewTokenLengths(17)
	var workload []gpusim.Kernel
	for i := 0; i < 12; i++ {
		workload = append(workload, cfg.GenerateKernels(16, lengths.Next())...)
	}
	for _, k := range workload {
		tr := spec.SpecTraffic(k)
		dur := spec.SpecDuration(k, tr)
		if dur <= 0 {
			continue
		}
		e := energy.Joules(k.Instructions)*coef.Instr +
			energy.Joules(tr.L1Wavefronts)*coef.L1 +
			energy.Joules(tr.L2Sectors)*coef.L2 +
			energy.Joules(tr.VRAMSectors)*coef.VRAM +
			coef.Static.OverSeconds(dur)
		if p := e.Power(secondsToDuration(dur)); p > res.PredictedPeak {
			res.PredictedPeak = p
		}
	}

	// Measured: run the same mix on the device and track per-kernel power
	// and the window average.
	lengths = trace.NewTokenLengths(17) // same mix
	var totalE energy.Joules
	var totalT float64
	for i := 0; i < 12; i++ {
		for _, k := range cfg.GenerateKernels(16, lengths.Next()) {
			st := rig.GPU.Launch(k)
			totalE += st.Energy()
			totalT += st.Duration
			if p := st.Energy().Power(secondsToDuration(st.Duration)); p > res.MeasuredPeak {
				res.MeasuredPeak = p
			}
		}
	}
	if totalT > 0 {
		res.AveragePower = energy.Watts(float64(totalE) / totalT)
	}

	res.ServersByNameplate = int(float64(E8RackBudget) / float64(res.Nameplate))
	res.ServersByInterface = int(float64(E8RackBudget) / float64(res.PredictedPeak))
	if res.ServersByNameplate > 0 {
		res.UtilizationGain = float64(res.ServersByInterface-res.ServersByNameplate) /
			float64(res.ServersByNameplate)
	}
	return res, nil
}

func secondsToDuration(s float64) time.Duration { return time.Duration(s * 1e9) }
