package drift

import (
	"fmt"
	"sync"
	"sync/atomic"

	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
	"energyclarity/internal/verify"
)

// ProbeFunc produces one monitoring observation: run a request (or replay
// a sampled one), return the abstract input class it exercised, the bound
// interface's predicted energy for it, and the metered energy.
type ProbeFunc func() (input string, predicted, measured energy.Joules, err error)

// RecalFunc re-derives interface coefficients from the live device —
// typically a closure over microbench.Calibrate against the same GPU the
// probes measure.
type RecalFunc func() (microbench.Coefficients, error)

// InstallFunc atomically installs new coefficients into the serving
// interface stack and returns the new interface version. Installation
// must go through core.Interface.Rebind (or an equivalent version bump)
// so LayerCache entries keyed by the old subtree versions become
// unreachable and fixed-version answers stay bit-exact.
type InstallFunc func(microbench.Coefficients) (version uint64, err error)

// Hooks wires a Controller to its environment. All three are required.
type Hooks struct {
	Probe       ProbeFunc
	Recalibrate RecalFunc
	Install     InstallFunc
	// Clock optionally supplies a timestamp (e.g. gpusim device time in
	// seconds) recorded on each Generation. Nil leaves timestamps zero.
	Clock func() float64
}

// Generation is one entry in the calibration registry: a set of
// coefficients that served (or is serving) predictions, the interface
// version under which it was installed, and how it came to be.
type Generation struct {
	Index      int                     `json:"index"`   // 0 = initial calibration, then 1, 2, ...
	Version    uint64                  `json:"version"` // interface version serving this generation
	Reason     string                  `json:"reason"`  // "seed", "drift", "manual", ...
	Coef       microbench.Coefficients `json:"coef"`
	DetectedAt int                     `json:"detected_at,omitempty"` // monitor sample index of the triggering alarm (0 for seed)
	Residual   float64                 `json:"residual"`              // post-install verification residual (signed)
	Time       float64                 `json:"time,omitempty"`        // Hooks.Clock at install, 0 without a clock
}

// Controller owns the detect→recalibrate→install loop for one device ×
// interface pair. It is safe for concurrent use: a background loop may
// call Observe/NeedsRecal/Recalibrate while handlers read Status and
// Generations.
type Controller struct {
	mon   *Monitor
	hooks Hooks

	recalBusy atomic.Bool // a recalibration is running

	mu         sync.Mutex
	gens       []Generation
	detections int
	bugs       int
	lastState  State
}

// NewController validates the hooks and builds a controller around mon.
func NewController(mon *Monitor, hooks Hooks) (*Controller, error) {
	if mon == nil {
		return nil, fmt.Errorf("drift: nil monitor")
	}
	if hooks.Probe == nil || hooks.Recalibrate == nil || hooks.Install == nil {
		return nil, fmt.Errorf("drift: Probe, Recalibrate and Install hooks are all required")
	}
	return &Controller{mon: mon, hooks: hooks, lastState: StateWarmup}, nil
}

// Monitor exposes the underlying monitor (for tests and dashboards).
func (c *Controller) Monitor() *Monitor { return c.mon }

// SeedGeneration records generation 0: the calibration the system booted
// with. Call it once before the loop starts so the registry is complete.
func (c *Controller) SeedGeneration(coef microbench.Coefficients, version uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gens = append(c.gens, Generation{
		Index:   len(c.gens),
		Version: version,
		Reason:  "seed",
		Coef:    coef,
		Time:    c.clock(),
	})
}

func (c *Controller) clock() float64 {
	if c.hooks.Clock == nil {
		return 0
	}
	return c.hooks.Clock()
}

// Observe runs one probe and feeds the monitor, tracking state
// transitions (detections and energy-bug flags) for the registry.
func (c *Controller) Observe() (Verdict, error) {
	input, pred, meas, err := c.hooks.Probe()
	if err != nil {
		return Verdict{}, fmt.Errorf("drift: probe: %w", err)
	}
	v := c.mon.Ingest(input, pred, meas)

	c.mu.Lock()
	defer c.mu.Unlock()
	if v.State != c.lastState {
		switch v.State {
		case StateDrifting:
			c.detections++
		case StateEnergyBug:
			c.bugs++
		}
		c.lastState = v.State
	}
	return v, nil
}

// NeedsRecal reports whether the monitor has latched a drift verdict and
// no recalibration is already running. An energy-bug verdict does NOT
// request recalibration: new coefficients cannot fix an input-dependent
// divergence, so it stays latched (and visible) until operators intervene
// or the monitor is reset.
func (c *Controller) NeedsRecal() bool {
	return c.mon.State() == StateDrifting && !c.recalBusy.Load()
}

// Recalibrating reports whether a recalibration is currently running.
func (c *Controller) Recalibrating() bool { return c.recalBusy.Load() }

// Recalibrate runs the full repair: re-fit coefficients against the live
// device, install them (version bump + Rebind), verify with one probe,
// reset the monitor so it learns a fresh baseline, and record the new
// generation. Only one recalibration runs at a time; a concurrent call
// returns an error rather than queueing.
func (c *Controller) Recalibrate(reason string) (Generation, error) {
	if !c.recalBusy.CompareAndSwap(false, true) {
		return Generation{}, fmt.Errorf("drift: recalibration already in progress")
	}
	defer c.recalBusy.Store(false)

	detectedAt := c.mon.Snapshot().DetectedAt

	coef, err := c.hooks.Recalibrate()
	if err != nil {
		return Generation{}, fmt.Errorf("drift: recalibrate: %w", err)
	}
	version, err := c.hooks.Install(coef)
	if err != nil {
		return Generation{}, fmt.Errorf("drift: install: %w", err)
	}

	// The old baseline was learned against the old coefficients; start over.
	c.mon.Reset()

	// One verification probe against the freshly installed interface gives
	// the generation's recorded fit residual (and seeds the new warmup).
	var residual float64
	if _, pred, meas, perr := c.hooks.Probe(); perr == nil {
		residual = verify.Residual(pred, meas)
		c.mon.Ingest("recal-verify", pred, meas)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	gen := Generation{
		Index:      len(c.gens),
		Version:    version,
		Reason:     reason,
		Coef:       coef,
		DetectedAt: detectedAt,
		Residual:   residual,
		Time:       c.clock(),
	}
	c.gens = append(c.gens, gen)
	c.lastState = StateWarmup
	return gen, nil
}

// Generations returns a copy of the calibration registry, oldest first.
func (c *Controller) Generations() []Generation {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Generation, len(c.gens))
	copy(out, c.gens)
	return out
}

// ControllerStatus summarizes the controller for dashboards and the wire.
// Generations counts the installed generations; on the wire it is
// "generation", the name /v1/healthz gives the same count.
type ControllerStatus struct {
	Monitor        Status `json:"monitor"`
	Generations    int    `json:"generation"`
	Detections     int    `json:"detections"`
	EnergyBugs     int    `json:"energy_bugs"`
	Recalibrating  bool   `json:"recalibrating"`
	CurrentVersion uint64 `json:"current_version"` // version of the newest generation, 0 if none
}

// Status snapshots the controller and its monitor.
func (c *Controller) Status() ControllerStatus {
	st := ControllerStatus{
		Monitor:       c.mon.Snapshot(),
		Recalibrating: c.recalBusy.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st.Generations = len(c.gens)
	st.Detections = c.detections
	st.EnergyBugs = c.bugs
	if n := len(c.gens); n > 0 {
		st.CurrentVersion = c.gens[n-1].Version
	}
	return st
}
