package drift

import (
	"fmt"
	"math/rand"
	"testing"

	"energyclarity/internal/energy"
)

// feed pushes a residual r as a (predicted, measured) pair: predicted 100J,
// measured 100*(1+r).
func feed(m *Monitor, input string, r float64) Verdict {
	return m.Ingest(input, 100, energy.Joules(100*(1+r)))
}

func TestMonitorWarmupThenStable(t *testing.T) {
	m := NewMonitor(Config{Warmup: 5})
	for i := 0; i < 4; i++ {
		if v := feed(m, "a", 0.01); v.State != StateWarmup {
			t.Fatalf("sample %d: state %v during warmup", i, v.State)
		}
	}
	if v := feed(m, "a", 0.01); v.State != StateStable {
		t.Fatalf("state %v after warmup", v.State)
	}
	st := m.Snapshot()
	if st.Baseline < 0.009 || st.Baseline > 0.011 {
		t.Fatalf("baseline %v, want ~0.01", st.Baseline)
	}
}

func TestMonitorStableUnderNoise(t *testing.T) {
	// Zero-mean sensor noise at gpusim scale (±0.3%) must never alarm.
	m := NewMonitor(Config{})
	rng := rand.New(rand.NewSource(7))
	classes := []string{"gen/10", "gen/50", "gen/100"}
	for i := 0; i < 5000; i++ {
		r := 0.003 * (2*rng.Float64() - 1)
		v := feed(m, classes[i%len(classes)], r)
		if v.State == StateDrifting || v.State == StateEnergyBug {
			t.Fatalf("false positive at sample %d: %+v", i, v)
		}
	}
}

func TestMonitorDetectsUpwardDriftWithinBound(t *testing.T) {
	cfg := Config{Warmup: 8}
	m := NewMonitor(cfg)
	for i := 0; i < cfg.Warmup; i++ {
		feed(m, fmt.Sprintf("c%d", i%3), 0)
	}
	// A 5% persistent shift: expected detection delay is about
	// lambda/(shift−delta) ≈ 0.08/0.045 < 2 samples; allow 4x slack.
	shift := 0.05
	bound := int(4*lambda/(shift-delta)) + 1
	for i := 0; i < bound; i++ {
		v := feed(m, fmt.Sprintf("c%d", i%3), shift)
		if v.State == StateDrifting {
			if v.Sample != m.Snapshot().DetectedAt {
				t.Fatalf("verdict sample %d != recorded DetectedAt %d", v.Sample, m.Snapshot().DetectedAt)
			}
			return
		}
	}
	t.Fatalf("5%% drift not detected within %d post-shift samples: %+v", bound, m.Snapshot())
}

func TestMonitorDetectsDownwardDrift(t *testing.T) {
	m := NewMonitor(Config{})
	for i := 0; i < 8; i++ {
		feed(m, fmt.Sprintf("c%d", i%3), 0)
	}
	for i := 0; i < 20; i++ {
		if v := feed(m, fmt.Sprintf("c%d", i%3), -0.05); v.State == StateDrifting {
			return
		}
	}
	t.Fatal("downward drift not detected")
}

func TestMonitorClassifiesBroadShiftAsDrift(t *testing.T) {
	m := NewMonitor(Config{})
	classes := []string{"a", "b", "c", "d"}
	for i := 0; i < 16; i++ {
		feed(m, classes[i%4], 0)
	}
	for i := 0; i < 40; i++ {
		v := feed(m, classes[i%4], 0.06)
		if v.State != StateWarmup && v.State != StateStable {
			if v.State != StateDrifting {
				t.Fatalf("broad shift classified as %v (input %q)", v.State, v.Input)
			}
			return
		}
	}
	t.Fatal("broad shift never alarmed")
}

func TestMonitorClassifiesLocalShiftAsEnergyBug(t *testing.T) {
	m := NewMonitor(Config{})
	classes := []string{"a", "b", "c", "d"}
	for i := 0; i < 16; i++ {
		feed(m, classes[i%4], 0)
	}
	// Only class "d" misbehaves (a retry bug on one request shape); the
	// other three stay on-model.
	for i := 0; i < 200; i++ {
		cl := classes[i%4]
		r := 0.0
		if cl == "d" {
			r = 0.40
		}
		v := feed(m, cl, r)
		if v.State != StateWarmup && v.State != StateStable {
			if v.State != StateEnergyBug {
				t.Fatalf("local shift classified as %v", v.State)
			}
			if v.Input != "d" {
				t.Fatalf("offending input %q, want d", v.Input)
			}
			return
		}
	}
	t.Fatal("local shift never alarmed")
}

func TestMonitorLatchesUntilReset(t *testing.T) {
	m := NewMonitor(Config{})
	for i := 0; i < 8; i++ {
		feed(m, "a", 0)
	}
	for i := 0; i < 20 && m.State() != StateDrifting; i++ {
		feed(m, "a", 0.10)
	}
	if m.State() != StateDrifting {
		t.Fatal("drift not detected")
	}
	// Residuals return to normal (e.g. thermal transient passed) — the
	// alarm must stay latched: only an explicit recalibration clears it.
	for i := 0; i < 50; i++ {
		feed(m, "a", 0)
	}
	if m.State() != StateDrifting {
		t.Fatal("alarm un-latched without Reset")
	}
	m.Reset()
	if m.State() != StateWarmup || m.Snapshot().Samples != 0 {
		t.Fatalf("Reset incomplete: %+v", m.Snapshot())
	}
	// And the monitor works again after reset.
	for i := 0; i < 8; i++ {
		if v := feed(m, "a", 0); v.State == StateDrifting {
			t.Fatal("stale alarm after reset")
		}
	}
}

func TestMonitorSnapshotClassesSorted(t *testing.T) {
	m := NewMonitor(Config{})
	feed(m, "zeta", 0.01)
	feed(m, "alpha", 0.02)
	feed(m, "mid", 0.03)
	st := m.Snapshot()
	if len(st.Classes) != 3 {
		t.Fatalf("classes %d, want 3", len(st.Classes))
	}
	if st.Classes[0].Input != "alpha" || st.Classes[2].Input != "zeta" {
		t.Fatalf("classes not sorted: %+v", st.Classes)
	}
	if st.Classes[0].Samples != 1 {
		t.Fatalf("class sample count wrong: %+v", st.Classes[0])
	}
}

func TestMonitorVerdictCarriesResidual(t *testing.T) {
	m := NewMonitor(Config{})
	v := m.Ingest("x", 100, 105)
	if v.Residual < 0.049 || v.Residual > 0.051 {
		t.Fatalf("residual %v, want 0.05", v.Residual)
	}
	if v.Sample != 1 {
		t.Fatalf("sample %d, want 1", v.Sample)
	}
}

func TestMonitorSmallShiftBelowDeltaTolerated(t *testing.T) {
	// Shifts inside the drift allowance never accumulate: a permanent
	// +0.3% offset (inside delta=0.5%) is sensor-grade, not drift.
	m := NewMonitor(Config{})
	for i := 0; i < 8; i++ {
		feed(m, "a", 0)
	}
	for i := 0; i < 2000; i++ {
		if v := feed(m, "a", 0.003); v.State != StateStable {
			t.Fatalf("sub-delta shift alarmed at %d: %+v", i, v)
		}
	}
}
