package drift

import (
	"sort"
	"sync"

	"energyclarity/internal/energy"
	"energyclarity/internal/verify"
)

// Monitor is the streaming detector: feed it (predicted, measured) pairs
// via Ingest and it maintains an EWMA of the signed relative residual, a
// frozen baseline learned over the warmup window, and a two-sided
// Page-Hinkley statistic against that baseline. When the statistic alarms
// the monitor classifies the shift (drift vs energy bug) and the state
// latches until Reset — a recalibration both installs new coefficients
// and resets the monitor so a fresh baseline is learned against them.
//
// Monitor is safe for concurrent use; Ingest calls are serialized.
type Monitor struct {
	mu  sync.Mutex
	cfg Config

	state   State
	samples int

	// Warmup accumulation and the frozen baseline.
	warmSum  float64
	baseline float64

	// EWMA of the residual stream (initialized to the baseline).
	ewma float64

	// Two-sided Page-Hinkley: cumUp accumulates (r − baseline − delta)
	// and alarms when it exceeds its running minimum by lambda (upward
	// shift: device consuming more than predicted); cumDown mirrors it
	// for downward shifts.
	cumUp, minUp     float64
	cumDown, maxDown float64

	// Per-input-class residual statistics for alarm classification.
	classes map[string]*classStat

	// pendingSince is the sample at which the Page-Hinkley excursion first
	// crossed lambda while classification evidence was still incomplete;
	// zero when no alarm is pending.
	pendingSince int

	detectedAt int    // sample index at which the alarm latched
	offending  string // worst input class when state is StateEnergyBug
	lastShift  float64
}

// classStat tracks one input class: an all-time residual EWMA (for
// dashboards) plus cumulative sums anchored at each Page-Hinkley extremum
// reset, so the mean residual over the current excursion window — the
// samples that actually drove an alarm — can be recovered per class.
type classStat struct {
	ewma float64 // all-time residual EWMA
	sum  float64 // all-time residual sum
	n    int

	// Snapshots of (sum, n) taken when the corresponding Page-Hinkley
	// side last reset its extremum: samples past the snapshot are inside
	// that side's current excursion window.
	upSum, downSum float64
	upN, downN     int
}

// window returns the class's residual sum and count inside the given
// Page-Hinkley side's current excursion.
func (cs *classStat) window(up bool) (sum float64, n int) {
	if up {
		return cs.sum - cs.upSum, cs.n - cs.upN
	}
	return cs.sum - cs.downSum, cs.n - cs.downN
}

// NewMonitor builds a monitor with the given config (zero value = defaults).
func NewMonitor(cfg Config) *Monitor {
	return &Monitor{cfg: cfg.withDefaults(), classes: map[string]*classStat{}}
}

// Verdict is the monitor's judgement after one sample.
type Verdict struct {
	State    State
	Sample   int     // 1-based index of this sample since the last Reset
	Input    string  // offending input class (set when State is StateEnergyBug)
	Residual float64 // this sample's signed relative residual
	Shift    float64 // current EWMA deviation from the baseline
}

// Ingest feeds one observation: the abstract input class it came from
// (e.g. "generate/50"), the interface's predicted energy, and the metered
// energy. It returns the monitor's verdict after absorbing the sample.
func (m *Monitor) Ingest(input string, predicted, measured energy.Joules) Verdict {
	r := verify.Residual(predicted, measured)

	m.mu.Lock()
	defer m.mu.Unlock()

	m.samples++

	cs := m.classes[input]
	if cs == nil {
		cs = &classStat{ewma: r}
		m.classes[input] = cs
	} else {
		cs.ewma += alpha * (r - cs.ewma)
	}
	cs.sum += r
	cs.n++

	switch {
	case m.samples < m.cfg.Warmup:
		m.warmSum += r
		m.ewma = m.warmSum / float64(m.samples)
		return m.verdictLocked(r)
	case m.samples == m.cfg.Warmup:
		m.warmSum += r
		m.baseline = m.warmSum / float64(m.cfg.Warmup)
		m.ewma = m.baseline
		m.state = StateStable
		// Warmup samples are baseline evidence, not excursion evidence:
		// anchor both windows at the moment detection arms.
		m.anchorLocked(true)
		m.anchorLocked(false)
		return m.verdictLocked(r)
	}

	m.ewma += alpha * (r - m.ewma)
	m.lastShift = m.ewma - m.baseline

	if m.state == StateDrifting || m.state == StateEnergyBug {
		// Latched: keep statistics flowing but do not re-classify.
		return m.verdictLocked(r)
	}

	dev := r - m.baseline
	m.cumUp += dev - delta
	if m.cumUp < m.minUp {
		m.minUp = m.cumUp
		m.anchorLocked(true)
	}
	m.cumDown += dev + delta
	if m.cumDown > m.maxDown {
		m.maxDown = m.cumDown
		m.anchorLocked(false)
	}
	upExc, downExc := m.cumUp-m.minUp, m.maxDown-m.cumDown
	if upExc > lambda || downExc > lambda {
		if m.pendingSince == 0 {
			m.pendingSince = m.samples
		}
		up := upExc >= downExc
		// Latch only once every established class has enough samples
		// inside the excursion window to be judged fairly — a fast broad
		// shift alarms before the probe rotation has revisited every
		// class, and judging stale classes would misread device drift as
		// an input-local bug. A class that stops being probed cannot
		// stall the verdict forever: past the cap, classify on whatever
		// evidence exists.
		if m.evidenceLocked(up) || m.samples-m.pendingSince >= 4*len(m.classes) {
			m.state, m.offending = m.classifyLocked(up)
			m.detectedAt = m.samples
		}
	} else {
		m.pendingSince = 0
	}
	return m.verdictLocked(r)
}

// anchorLocked snapshots every class's cumulative statistics for one
// Page-Hinkley side; called when that side's extremum resets, marking the
// start of a fresh excursion window.
func (m *Monitor) anchorLocked(up bool) {
	for _, cs := range m.classes {
		if up {
			cs.upSum, cs.upN = cs.sum, cs.n
		} else {
			cs.downSum, cs.downN = cs.sum, cs.n
		}
	}
}

// evidenceLocked reports whether every class established before the alarm
// has gathered minClassSamples inside the excursion window.
func (m *Monitor) evidenceLocked(up bool) bool {
	for _, cs := range m.classes {
		if cs.n < minClassSamples {
			continue
		}
		if _, n := cs.window(up); n < minClassSamples {
			return false
		}
	}
	return true
}

func (m *Monitor) verdictLocked(r float64) Verdict {
	return Verdict{
		State:    m.state,
		Sample:   m.samples,
		Input:    m.offending,
		Residual: r,
		Shift:    m.lastShift,
	}
}

// classifyLocked decides, at alarm time, whether the detected shift is
// device-wide drift or an input-dependent energy bug. Each class is
// judged by its mean residual over the excursion window — the samples
// that drove the alarm, so a uniform shift shows the same deviation in
// every class no matter when the rotation last visited it. A class
// counts as diverged when that mean moved beyond shiftTol from the
// baseline. If diverged classes are a minority of the judged classes the
// shift is input-dependent (an energy bug, flagged with the worst class);
// a majority-or-all shift is the device itself drifting.
func (m *Monitor) classifyLocked(up bool) (State, string) {
	judged, diverged := 0, 0
	worst, worstDev := "", 0.0
	for name, cs := range m.classes {
		sum, n := cs.window(up)
		if n < 1 {
			continue // no in-window evidence either way
		}
		judged++
		dev := sum/float64(n) - m.baseline
		if dev < 0 {
			dev = -dev
		}
		if dev > shiftTol {
			diverged++
			if dev > worstDev || (dev == worstDev && name < worst) {
				worst, worstDev = name, dev
			}
		}
	}
	if diverged == 0 {
		// The global statistic alarmed but no single class moved far
		// enough to blame: there is no evidence the divergence is
		// input-local, so it is device drift.
		return StateDrifting, ""
	}
	if diverged*2 <= judged {
		return StateEnergyBug, worst
	}
	return StateDrifting, ""
}

// Reset clears all detector state: the monitor returns to warmup and
// learns a fresh baseline. Call it after installing a new calibration.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.state = StateWarmup
	m.samples = 0
	m.warmSum, m.baseline, m.ewma = 0, 0, 0
	m.cumUp, m.minUp, m.cumDown, m.maxDown = 0, 0, 0, 0
	m.classes = map[string]*classStat{}
	m.pendingSince = 0
	m.detectedAt = 0
	m.offending = ""
	m.lastShift = 0
}

// ClassStatus reports one input class's running statistics.
type ClassStatus struct {
	Input    string  `json:"input"`
	Samples  int     `json:"samples"`
	Residual float64 `json:"residual"` // class residual EWMA (signed)
}

// Status is a point-in-time snapshot of the monitor.
type Status struct {
	State      State         `json:"state"`
	Samples    int           `json:"samples"`
	Baseline   float64       `json:"baseline"`
	EWMA       float64       `json:"ewma"`
	Shift      float64       `json:"shift"`                 // EWMA − baseline
	PHUp       float64       `json:"ph_up"`                 // cumUp − minUp (upward Page-Hinkley excursion)
	PHDown     float64       `json:"ph_down"`               // maxDown − cumDown
	Lambda     float64       `json:"lambda"`                // alarm threshold, for dashboards
	DetectedAt int           `json:"detected_at,omitempty"` // sample index of the latched alarm, 0 if none
	Offending  string        `json:"offending,omitempty"`   // offending input when State is StateEnergyBug
	Classes    []ClassStatus `json:"classes,omitempty"`
}

// Snapshot returns the current detector state (classes sorted by input).
func (m *Monitor) Snapshot() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := Status{
		State:      m.state,
		Samples:    m.samples,
		Baseline:   m.baseline,
		EWMA:       m.ewma,
		Shift:      m.lastShift,
		PHUp:       m.cumUp - m.minUp,
		PHDown:     m.maxDown - m.cumDown,
		Lambda:     lambda,
		DetectedAt: m.detectedAt,
		Offending:  m.offending,
	}
	for name, cs := range m.classes {
		st.Classes = append(st.Classes, ClassStatus{Input: name, Samples: cs.n, Residual: cs.ewma})
	}
	sort.Slice(st.Classes, func(i, j int) bool { return st.Classes[i].Input < st.Classes[j].Input })
	return st
}

// State returns the current verdict state.
func (m *Monitor) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}
