package microbench

import (
	"fmt"

	"energyclarity/internal/core"
	"energyclarity/internal/gpusim"
)

// Canonical device seeds: "the two cards in the lab". All experiments use
// these fixed devices, like the paper's fixed testbed. The seeds were
// chosen once so the simulated devices' deviation draws are representative
// of their model's spread (see DESIGN.md §3 expected shapes).
const (
	Seed4090 = 30
	Seed3070 = 4
)

// CalibrationRepeats is the microbenchmark repeat count used everywhere.
const CalibrationRepeats = 3

// Rig is one calibrated GPU testbed: the device, its fitted coefficients,
// and its bottom-layer energy interface.
type Rig struct {
	Spec   gpusim.Spec
	Seed   int64 // device seed: NewGPU(Spec, Seed) replicates the silicon
	GPU    *gpusim.GPU
	Coef   Coefficients
	Device *core.Interface // DeviceInterface: coefficients + datasheet model
}

// NewRig instantiates and calibrates a device.
func NewRig(spec gpusim.Spec, seed int64) (*Rig, error) {
	g := gpusim.NewGPU(spec, seed)
	coef, err := Calibrate(g, CalibrationRepeats)
	if err != nil {
		return nil, fmt.Errorf("microbench: rig %s: %w", spec.Name, err)
	}
	return &Rig{
		Spec:   spec,
		Seed:   seed,
		GPU:    g,
		Coef:   coef,
		Device: coef.DeviceInterface(spec),
	}, nil
}

// Replica constructs a fresh device with the rig's spec and seed: the
// same hidden silicon (deviations, sensor noise stream) in pristine
// operating state. Workers that measure concurrently each take a replica
// because gpusim.GPU is stateful and not safe for concurrent use.
func (r *Rig) Replica() *gpusim.GPU { return gpusim.NewGPU(r.Spec, r.Seed) }

// Rig4090 returns the canonical RTX 4090 testbed.
func Rig4090() (*Rig, error) { return NewRig(gpusim.RTX4090(), Seed4090) }

// Rig3070 returns the canonical RTX 3070 testbed.
func Rig3070() (*Rig, error) { return NewRig(gpusim.RTX3070(), Seed3070) }
