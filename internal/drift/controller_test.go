package drift

import (
	"fmt"
	"sync"
	"testing"

	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
)

// fakeRig simulates a device/interface pair: the device consumes
// truth J per probe while the installed calibration predicts pred J.
// Recalibration snaps pred back to truth and bumps the version.
type fakeRig struct {
	mu      sync.Mutex
	truth   float64
	pred    float64
	version uint64
	clock   float64

	recalCalls   int
	installCalls int
	recalErr     error
	installErr   error
}

func (f *fakeRig) hooks() Hooks {
	return Hooks{
		Probe: func() (string, energy.Joules, energy.Joules, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.clock += 0.1
			return "probe", energy.Joules(f.pred), energy.Joules(f.truth), nil
		},
		Recalibrate: func() (microbench.Coefficients, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.recalCalls++
			if f.recalErr != nil {
				return microbench.Coefficients{}, f.recalErr
			}
			return microbench.Coefficients{Device: "fake"}, nil
		},
		Install: func(microbench.Coefficients) (uint64, error) {
			f.mu.Lock()
			defer f.mu.Unlock()
			f.installCalls++
			if f.installErr != nil {
				return 0, f.installErr
			}
			f.pred = f.truth // new fit matches the device again
			f.version++
			return f.version, nil
		},
		Clock: func() float64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return f.clock
		},
	}
}

func newTestController(t *testing.T, f *fakeRig, cfg Config) *Controller {
	t.Helper()
	c, err := NewController(NewMonitor(cfg), f.hooks())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewControllerValidatesHooks(t *testing.T) {
	f := &fakeRig{truth: 100, pred: 100}
	if _, err := NewController(nil, f.hooks()); err == nil {
		t.Fatal("nil monitor accepted")
	}
	h := f.hooks()
	h.Probe = nil
	if _, err := NewController(NewMonitor(Config{}), h); err == nil {
		t.Fatal("missing probe hook accepted")
	}
}

func TestControllerFullCycle(t *testing.T) {
	f := &fakeRig{truth: 100, pred: 100, version: 1}
	c := newTestController(t, f, Config{Warmup: 4})
	c.SeedGeneration(microbench.Coefficients{Device: "fake"}, 1)

	// Healthy phase: observe through warmup into stable, no recal needed.
	for i := 0; i < 10; i++ {
		if _, err := c.Observe(); err != nil {
			t.Fatal(err)
		}
		if c.NeedsRecal() {
			t.Fatalf("healthy rig requested recalibration at sample %d", i)
		}
	}

	// The device ages 6%: predictions go stale.
	f.mu.Lock()
	f.truth = 106
	f.mu.Unlock()
	detected := false
	for i := 0; i < 30; i++ {
		v, err := c.Observe()
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateDrifting {
			detected = true
			break
		}
	}
	if !detected {
		t.Fatal("drift never detected")
	}
	if !c.NeedsRecal() {
		t.Fatal("drift verdict did not request recalibration")
	}

	gen, err := c.Recalibrate("drift")
	if err != nil {
		t.Fatal(err)
	}
	if gen.Index != 1 || gen.Version != 2 || gen.Reason != "drift" {
		t.Fatalf("generation wrong: %+v", gen)
	}
	if gen.DetectedAt == 0 {
		t.Fatal("generation lost the detection sample index")
	}
	if gen.Residual != 0 {
		t.Fatalf("post-install residual %v, want 0 (fit is exact)", gen.Residual)
	}
	if gen.Time <= 0 {
		t.Fatal("generation missing clock timestamp")
	}
	if f.recalCalls != 1 || f.installCalls != 1 {
		t.Fatalf("hook calls recal=%d install=%d", f.recalCalls, f.installCalls)
	}

	// Monitor restarted and the repaired rig is healthy again.
	if got := c.Monitor().State(); got != StateWarmup {
		t.Fatalf("monitor state %v after recal, want warmup", got)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Observe(); err != nil {
			t.Fatal(err)
		}
	}
	if c.NeedsRecal() {
		t.Fatal("repaired rig still requests recalibration")
	}

	st := c.Status()
	if st.Generations != 2 || st.Detections != 1 || st.CurrentVersion != 2 {
		t.Fatalf("status wrong: %+v", st)
	}
	gens := c.Generations()
	if len(gens) != 2 || gens[0].Reason != "seed" || gens[1].Reason != "drift" {
		t.Fatalf("registry wrong: %+v", gens)
	}
}

func TestControllerEnergyBugDoesNotRecal(t *testing.T) {
	f := &fakeRig{truth: 100, pred: 100}
	mon := NewMonitor(Config{Warmup: 4})
	c, err := NewController(mon, f.hooks())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := c.Observe(); err != nil {
			t.Fatal(err)
		}
	}
	// Inject an input-dependent bug directly into the monitor: many
	// classes stable, one diverged (gently enough that the class gathers
	// minClassSamples of evidence before the global alarm fires).
	for i := 0; i < 200 && mon.State() != StateEnergyBug; i++ {
		for _, cl := range []string{"a", "b", "c"} {
			mon.Ingest(cl, 100, 100)
		}
		mon.Ingest("d", 100, 106)
	}
	if mon.State() != StateEnergyBug {
		t.Fatal("energy bug never latched")
	}
	if c.NeedsRecal() {
		t.Fatal("energy bug requested recalibration — new coefficients cannot fix it")
	}
	// The transition is still counted once observation notices it.
	if _, err := c.Observe(); err != nil {
		t.Fatal(err)
	}
	if st := c.Status(); st.EnergyBugs != 1 {
		t.Fatalf("energy bug not counted: %+v", st)
	}
}

func TestControllerSingleRecalAtATime(t *testing.T) {
	f := &fakeRig{truth: 100, pred: 100, version: 1}
	started := make(chan struct{})
	release := make(chan struct{})
	h := f.hooks()
	inner := h.Recalibrate
	h.Recalibrate = func() (microbench.Coefficients, error) {
		close(started)
		<-release
		return inner()
	}
	c, err := NewController(NewMonitor(Config{}), h)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Recalibrate("manual")
		done <- err
	}()
	<-started
	if !c.Recalibrating() {
		t.Fatal("Recalibrating() false while hook is running")
	}
	if _, err := c.Recalibrate("manual"); err == nil {
		t.Fatal("concurrent recalibration accepted")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.Recalibrating() {
		t.Fatal("Recalibrating() stuck true")
	}
}

func TestControllerHookErrors(t *testing.T) {
	f := &fakeRig{truth: 100, pred: 100, recalErr: fmt.Errorf("bench offline")}
	c := newTestController(t, f, Config{})
	if _, err := c.Recalibrate("manual"); err == nil {
		t.Fatal("recal error swallowed")
	}
	if len(c.Generations()) != 0 {
		t.Fatal("failed recal recorded a generation")
	}
	if c.Recalibrating() {
		t.Fatal("busy flag leaked after failure")
	}

	f2 := &fakeRig{truth: 100, pred: 100, installErr: fmt.Errorf("registry down")}
	c2 := newTestController(t, f2, Config{})
	if _, err := c2.Recalibrate("manual"); err == nil {
		t.Fatal("install error swallowed")
	}
	if c2.Monitor().Snapshot().Samples != 0 {
		t.Fatal("failed install fed the monitor")
	}
}

func TestControllerProbeErrorPropagates(t *testing.T) {
	f := &fakeRig{truth: 100, pred: 100}
	h := f.hooks()
	h.Probe = func() (string, energy.Joules, energy.Joules, error) {
		return "", 0, 0, fmt.Errorf("meter unplugged")
	}
	c, err := NewController(NewMonitor(Config{}), h)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Observe(); err == nil {
		t.Fatal("probe error swallowed")
	}
}
