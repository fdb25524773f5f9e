// Package drift implements continuous calibration for energy interfaces:
// the online half of the paper's §4.2 workflow. A one-shot calibration
// (internal/microbench) fits an interface to a device at a point in time;
// real devices then age, heat, and change clocks, so the fitted
// coefficients go stale while the interface keeps confidently answering.
// This package closes the loop:
//
//   - Monitor ingests streaming (predicted, measured) energy pairs — the
//     prediction from a bound core.Interface, the measurement from nvml
//     sampling over the live device — and runs two detectors on the signed
//     relative residual (verify.Residual): an EWMA tracker that smooths
//     sensor noise, and a two-sided Page-Hinkley change-point test against
//     a frozen post-calibration baseline that turns a persistent shift
//     into an alarm with bounded detection delay.
//
//   - On alarm the Monitor classifies: if the shift shows up across the
//     input distribution it is device drift (recalibrate); if it is
//     confined to a minority of input classes it is an input-dependent
//     energy bug (per §4.2, report the offending abstract input — new
//     coefficients cannot fix a software bug).
//
//   - Controller drives the response: re-run the microbench fitting
//     probes against the live device, install the new coefficients via an
//     Interface version bump + Rebind (so core.LayerCache entries
//     invalidate by construction and answers stay bit-exact for a fixed
//     version), and record the calibration generation.
//
// The daemon integration (background loop, /v1/drift endpoint) lives in
// internal/eisvc; experiment E14 (internal/experiments) demonstrates the
// full detect→recalibrate→restore cycle. See docs/DRIFT.md for the math.
package drift

import "fmt"

// The detector's constants, tuned for gpusim-class sensors (sub-percent
// noise after quantization).
const (
	// alpha is the EWMA smoothing factor: the weight given to the newest
	// residual. Larger tracks faster but passes more sensor noise.
	alpha = 0.25

	// delta is the Page-Hinkley drift allowance: residual deviations from
	// the baseline smaller than delta are treated as noise and never
	// accumulate. It sets the smallest shift the detector will chase
	// (half a percent).
	delta = 0.005

	// lambda is the Page-Hinkley alarm threshold: the accumulated excess
	// deviation (beyond delta per sample) that triggers detection. With a
	// true shift s > delta, detection takes about lambda/(s-delta)
	// samples.
	lambda = 0.08

	// shiftTol is the per-input-class deviation (|mean in-excursion
	// residual − baseline|) beyond which a class counts as diverged when
	// classifying an alarm.
	shiftTol = 0.02

	// minClassSamples is how many samples inside the alarming excursion
	// each established class must gather before the alarm is classified
	// and latched (capped so an abandoned class cannot stall the
	// verdict).
	minClassSamples = 2
)

// Config sets the detector's one knob. The zero value selects the
// default.
type Config struct {
	// Warmup is the number of initial samples used to learn the
	// post-calibration residual baseline before detection arms.
	// Default 8.
	Warmup int
}

func (c Config) withDefaults() Config {
	if c.Warmup <= 0 {
		c.Warmup = 8
	}
	return c
}

// State is the monitor's verdict about the device/interface pair.
type State int

const (
	// StateWarmup: still learning the post-calibration baseline.
	StateWarmup State = iota
	// StateStable: residuals consistent with the baseline plus noise.
	StateStable
	// StateDrifting: a persistent shift across the input distribution —
	// the device no longer matches its calibration; recalibrate.
	StateDrifting
	// StateEnergyBug: a persistent shift confined to specific inputs —
	// an input-dependent divergence new coefficients cannot fix; fix the
	// software (or the interface's model of it) instead.
	StateEnergyBug
)

// MarshalText writes the state as its String form, so the wire reads
// "stable" rather than 1.
func (s State) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText reads a state from its String form.
func (s *State) UnmarshalText(b []byte) error {
	for st := StateWarmup; st <= StateEnergyBug; st++ {
		if st.String() == string(b) {
			*s = st
			return nil
		}
	}
	return fmt.Errorf("drift: unknown state %q", b)
}

func (s State) String() string {
	switch s {
	case StateWarmup:
		return "warmup"
	case StateStable:
		return "stable"
	case StateDrifting:
		return "drifting"
	case StateEnergyBug:
		return "energy_bug"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}
