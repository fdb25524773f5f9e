// Package microbench derives a GPU's hardware energy interface from
// measurements, reproducing the paper's §5 methodology: "We ran the
// GPU-cache microbenchmark ... to measure the energy for the individual
// metrics, to obtain absolute energy measures."
//
// The calibrator launches a suite of kernels chosen to independently excite
// each energy term (instruction-only, L1-resident, L2-resident,
// VRAM-streaming, and mixed), measures each through the device's noisy
// sensor (internal/nvml), and solves a least-squares system for the five
// per-event coefficients the paper's GPT-2 interface is written in terms
// of: instruction energy, L1 wavefront energy, L2 sector energy, VRAM
// sector energy, and static power.
//
// Crucially, the design matrix is built from the *datasheet* traffic model
// (Spec.SpecTraffic): the calibrator cannot see the device's true traffic.
// Datasheet-vs-silicon mismatch and sensor noise therefore leak into the
// estimated coefficients — this calibration error is the systematic error
// source behind Table 1, and it is larger on the 3070 by construction.
package microbench

import (
	"fmt"
	"math"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
	"energyclarity/internal/gpusim"
	"energyclarity/internal/nvml"
	"energyclarity/internal/profile"
)

// Coefficients is a calibrated hardware energy model: joules per event and
// static watts. It is the "hardware energy interface" of §3's bottom layer,
// in numeric form.
type Coefficients struct {
	Device string        `json:"device"`
	Instr  energy.Joules `json:"instr_j"`
	L1     energy.Joules `json:"l1_j"`
	L2     energy.Joules `json:"l2_j"`
	VRAM   energy.Joules `json:"vram_j"`
	Static energy.Watts  `json:"static_w"`
}

// staticIdleSeconds is how long the calibrator idles the device to measure
// static power before running kernels.
const staticIdleSeconds = 2.0

// Calibrate runs the microbenchmark suite on the device and returns fitted
// coefficients, in two steps that mirror real methodology:
//
//  1. Static power is measured directly from a long idle window (on a real
//     device duration is bottleneck-determined, so a regression cannot
//     separate static power from per-event energy — idling is the only way
//     to observe it alone). Because the device is cool while idling, the
//     estimate misses load-temperature leakage: a genuine, workload-
//     dependent error that predictions inherit.
//  2. The four per-event coefficients are fit by least squares over the
//     suite, with the static contribution (estimated power × datasheet
//     duration) subtracted from each measurement.
//
// repeats controls how many times each kernel runs (averaging sensor noise
// and counter quantization). It returns an error if the regression is
// degenerate.
func Calibrate(g *gpusim.GPU, repeats int) (Coefficients, error) {
	return CalibrateSpec(g, repeats, g.Spec())
}

// CalibrateSpec calibrates against an explicit datasheet — used to derive
// per-operating-point hardware interfaces: set the device's DVFS scale,
// then calibrate with spec.AtScale(scale) so the design matrix matches the
// operating point being measured.
func CalibrateSpec(g *gpusim.GPU, repeats int, spec gpusim.Spec) (Coefficients, error) {
	if repeats < 1 {
		repeats = 1
	}
	meter := nvml.NewMeter(g)

	// Step 1: static power from idle.
	snap := meter.Snapshot()
	g.Idle(staticIdleSeconds)
	staticW, err := meter.AveragePowerSince(snap)
	if err != nil || staticW <= 0 {
		return Coefficients{}, fmt.Errorf("microbench: %s: static measurement failed (%v)", spec.Name, err)
	}

	// Step 2: per-event coefficients.
	var xs [][]float64
	var ys []float64
	for _, k := range Suite(spec) {
		tr := spec.SpecTraffic(k)
		dur := spec.SpecDuration(k, tr)
		snap := meter.Snapshot()
		for r := 0; r < repeats; r++ {
			g.Launch(k)
		}
		measured := float64(meter.EnergySince(snap)) / float64(repeats)
		dynamic := measured - float64(staticW.OverSeconds(dur))
		xs = append(xs, []float64{k.Instructions, tr.L1Wavefronts, tr.L2Sectors, tr.VRAMSectors})
		ys = append(ys, dynamic)
		// Let the device cool between benchmarks, as real methodology does,
		// so thermal state does not correlate across rows.
		g.Idle(0.05)
	}

	coef, err := profile.LeastSquares(xs, ys)
	if err != nil {
		return Coefficients{}, fmt.Errorf("microbench: %s: %w", spec.Name, err)
	}
	for i, c := range coef {
		if c <= 0 {
			return Coefficients{}, fmt.Errorf("microbench: %s: non-physical coefficient %d (%g)",
				spec.Name, i, c)
		}
	}
	return Coefficients{
		Device: spec.Name,
		Instr:  energy.Joules(coef[0]),
		L1:     energy.Joules(coef[1]),
		L2:     energy.Joules(coef[2]),
		VRAM:   energy.Joules(coef[3]),
		Static: staticW,
	}, nil
}

// Suite returns the calibration kernels for a device. Sizes scale with the
// device's cache geometry so each kernel lands in its intended regime.
func Suite(spec gpusim.Spec) []gpusim.Kernel {
	l1Cap := float64(spec.SMCount) * spec.L1PerSMBytes
	l2 := spec.L2Bytes
	var ks []gpusim.Kernel
	// Kernel sizes are large enough that each measurement dwarfs the
	// sensor's quantization step (8 mJ on the 3070) by orders of magnitude.
	// Instruction-only kernels (no memory traffic at all).
	for _, n := range []float64{1e9, 4e9, 1.6e10} {
		ks = append(ks, gpusim.Kernel{
			Name: "instr", Instructions: n,
		})
	}
	// L1-resident: tiny working set, very high reuse; almost all traffic
	// stops at L1.
	for _, a := range []float64{5e8, 2e9, 8e9} {
		ks = append(ks, gpusim.Kernel{
			Name: "l1", Instructions: a / 4, L1Accesses: a,
			WorkingSet: l1Cap / 8, Reuse: a / (l1Cap / 8 / gpusim.WavefrontBytes),
		})
	}
	// L2-resident: working set between L1 and L2 capacity, moderate reuse.
	for _, a := range []float64{5e8, 2e9, 8e9} {
		ks = append(ks, gpusim.Kernel{
			Name: "l2", Instructions: a / 8, L1Accesses: a,
			WorkingSet: math.Min(l2/2, 8*l1Cap), Reuse: 2,
		})
	}
	// VRAM streaming: working set far beyond L2, no reuse.
	for _, a := range []float64{2e8, 8e8, 3e9} {
		ks = append(ks, gpusim.Kernel{
			Name: "vram", Instructions: a / 8, L1Accesses: a,
			WorkingSet: a * gpusim.WavefrontBytes, Reuse: 1,
		})
	}
	// Mixed kernels tie the system together.
	ks = append(ks,
		gpusim.Kernel{Name: "mix1", Instructions: 6e9, L1Accesses: 2e9,
			WorkingSet: l2 / 4, Reuse: 4},
		gpusim.Kernel{Name: "mix2", Instructions: 1e9, L1Accesses: 4e9,
			WorkingSet: 4 * l2, Reuse: 3},
		gpusim.Kernel{Name: "mix3", Instructions: 3e9, L1Accesses: 1e9,
			WorkingSet: l1Cap / 2, Reuse: 12},
	)
	return ks
}

// HardwareInterface builds the bottom-layer energy interface (§3: "the
// lowest layer ... consist[s] of energy interfaces provided by a hardware
// vendor" — here, derived by calibration instead). Methods:
//
//	instr(n), l1(n), l2(n), vram(n) — energy of n events
//	static(seconds)                 — leakage over a duration
//	kernel(instr, l1, l2, vram, seconds) — a whole kernel launch
func (c Coefficients) HardwareInterface() *core.Interface {
	iface := core.New("gpu_" + c.Device)
	iface.SetDoc(fmt.Sprintf("calibrated hardware energy interface for %s", c.Device))
	add := func(name string, per energy.Joules) {
		iface.MustMethod(core.Method{
			Name: name, Params: []string{"n"},
			Doc: fmt.Sprintf("energy of n %s events (%.3g J each)", name, float64(per)),
			Body: func(call *core.Call) energy.Joules {
				return per * energy.Joules(call.Num(0))
			},
		})
	}
	add("instr", c.Instr)
	add("l1", c.L1)
	add("l2", c.L2)
	add("vram", c.VRAM)
	static := c.Static
	iface.MustMethod(core.Method{
		Name: "static", Params: []string{"seconds"},
		Doc: fmt.Sprintf("static energy over a duration (%.4g W)", float64(static)),
		Body: func(call *core.Call) energy.Joules {
			return static.OverSeconds(call.Num(0))
		},
	})
	iface.MustMethod(core.Method{
		Name:   "kernel",
		Params: []string{"instr", "l1", "l2", "vram", "seconds"},
		Doc:    "total energy of one kernel launch",
		Body: func(call *core.Call) energy.Joules {
			return call.Self("instr", core.Num(call.Num(0))) +
				call.Self("l1", core.Num(call.Num(1))) +
				call.Self("l2", core.Num(call.Num(2))) +
				call.Self("vram", core.Num(call.Num(3))) +
				call.Self("static", core.Num(call.Num(4)))
		},
	})
	return iface
}

// DeviceInterface builds the full bottom-layer interface for a device: the
// calibrated coefficients plus the device's datasheet traffic and timing
// model, exposed as
//
//	kernel_logical(instructions, l1_accesses, working_set, reuse)
//
// so upper layers describe kernels purely by shape-derived properties and
// never touch device geometry. This is what makes Fig. 2's rebinding
// complete: swapping devices rebinds this one interface, and coefficients,
// cache behaviour, and timing all follow.
func (c Coefficients) DeviceInterface(spec gpusim.Spec) *core.Interface {
	iface := c.HardwareInterface()
	iface.MustMethod(core.Method{
		Name:   "kernel_logical",
		Params: []string{"instructions", "l1_accesses", "working_set", "reuse"},
		Doc:    "energy of a kernel described by logical (shape-derived) properties",
		Body: func(call *core.Call) energy.Joules {
			k := gpusim.Kernel{
				Instructions: call.Num(0),
				L1Accesses:   call.Num(1),
				WorkingSet:   call.Num(2),
				Reuse:        call.Num(3),
			}
			if k.Instructions < 0 || k.L1Accesses < 0 || k.WorkingSet < 0 {
				core.Fail(fmt.Errorf("microbench: negative kernel properties"))
			}
			tr := spec.SpecTraffic(k)
			dur := spec.SpecDuration(k, tr)
			return call.Self("kernel",
				core.Num(k.Instructions),
				core.Num(tr.L1Wavefronts),
				core.Num(tr.L2Sectors),
				core.Num(tr.VRAMSectors),
				core.Num(dur))
		},
	})
	return iface
}
