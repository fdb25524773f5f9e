package eisvc

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/drift"
	"energyclarity/internal/energy"
	"energyclarity/internal/microbench"
)

// mkDevice builds a native "hardware" interface whose work(n) method costs
// coefJ per unit — the shape of a calibrated microbench interface, small
// enough for wire tests.
func mkDevice(name string, coefJ float64) *core.Interface {
	return core.New(name).MustMethod(core.Method{
		Name: "work", Params: []string{"n"},
		Body: func(c *core.Call) energy.Joules { return energy.Joules(coefJ * c.Num(0)) },
	})
}

// driftRig is a fake device/stack pair served by a daemon: the device's
// true per-unit cost can drift away from the installed calibration.
type driftRig struct {
	mu    sync.Mutex
	truth float64 // true J per unit
	srv   *Server
}

func (r *driftRig) setTruth(v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.truth = v
}

func (r *driftRig) getTruth() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.truth
}

// newDriftDaemon wires a daemon with a served stack ("svc" bound over
// "dev") and a drift controller whose probe predicts via the registry and
// measures the fake device truth. Recalibration "fits" the current truth.
func newDriftDaemon(t *testing.T, cfg drift.Config) (*driftRig, *Client, func()) {
	t.Helper()
	srv, c, done := newTestDaemon(t, Config{})
	rig := &driftRig{truth: 2.0, srv: srv}

	if _, err := srv.Registry().RegisterInterface("dev", mkDevice("dev", rig.getTruth())); err != nil {
		t.Fatal(err)
	}
	stack := core.New("svc").
		MustBind("hw", mkDevice("dev", rig.getTruth())).
		MustMethod(core.Method{Name: "req", Params: []string{"n"},
			Body: func(c *core.Call) energy.Joules { return c.E("hw", "work", core.Num(c.Num(0))) }})
	if _, err := srv.Registry().RegisterInterface("svc", stack); err != nil {
		t.Fatal(err)
	}

	mon := drift.NewMonitor(cfg)
	ctl, err := drift.NewController(mon, drift.Hooks{
		Probe: func() (string, energy.Joules, energy.Joules, error) {
			iface, _, ok := srv.Registry().Get("svc")
			if !ok {
				return "", 0, 0, errors.New("svc unregistered")
			}
			pred, err := iface.ExpectedJoules("req", core.Num(10))
			if err != nil {
				return "", 0, 0, err
			}
			return "req/10", pred, energy.Joules(rig.getTruth() * 10), nil
		},
		Recalibrate: func() (microbench.Coefficients, error) {
			return microbench.Coefficients{Device: "dev", Instr: energy.Joules(rig.getTruth())}, nil
		},
		Install: func(coef microbench.Coefficients) (uint64, error) {
			return srv.InstallCalibration("svc", "hw", "dev", mkDevice("dev", float64(coef.Instr)))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl.SeedGeneration(microbench.Coefficients{Device: "dev", Instr: 2.0}, 1)
	srv.AttachDrift(ctl)
	return rig, c, done
}

func TestHealthzReadyThenDraining(t *testing.T) {
	srv, c, done := newTestDaemon(t, Config{})
	defer done()
	hz, err := c.HealthzCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hz.Ready || hz.Draining || hz.DriftEnabled || hz.Recalibrating {
		t.Fatalf("fresh daemon healthz = %+v", hz)
	}
	srv.BeginDrain()
	hz, err = c.HealthzCtx(context.Background())
	if err != nil {
		t.Fatalf("healthz while draining must stay live: %v", err)
	}
	if hz.Ready || !hz.Draining {
		t.Fatalf("draining healthz = %+v, want ready=false draining=true", hz)
	}
}

func TestDriftEndpointDisabled(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	_, err := c.DriftCtx(context.Background())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("drift on plain daemon: err = %v, want 404", err)
	}
}

// TestDriftStepDetectsAndRecalibrates drives the daemon's own DriftStep
// through the full cycle: stable monitoring, injected drift, detection,
// recalibration under admission control, version bump, and the registry /
// healthz / stats surfaces reflecting each phase.
func TestDriftStepDetectsAndRecalibrates(t *testing.T) {
	rig, c, done := newDriftDaemon(t, drift.Config{Warmup: 4})
	defer done()
	srv := rig.srv
	ctx := context.Background()

	_, v0, _ := srv.Registry().Get("svc")

	// Healthy phase: steps keep the monitor stable, nothing recalibrates.
	for i := 0; i < 10; i++ {
		if err := srv.DriftStep(ctx); err != nil {
			t.Fatal(err)
		}
	}
	dr, err := c.DriftCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dr.Monitor.State != drift.StateStable || dr.Detections != 0 || dr.Steps != 10 || len(dr.Generations) != 1 {
		t.Fatalf("healthy drift status = %+v", dr)
	}
	if dr.Generations[0].Reason != "seed" {
		t.Fatalf("generation 0 = %+v, want seed", dr.Generations[0])
	}

	// The device ages 8%; steps must detect and then recalibrate.
	rig.setTruth(2.16)
	deadline := time.Now().Add(5 * time.Second)
	for atomic.LoadUint64(&srv.driftCounts.Recalibrations) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no recalibration; drift = %+v", mustDrift(t, c))
		}
		if err := srv.DriftStep(ctx); err != nil {
			t.Fatal(err)
		}
	}

	dr = mustDrift(t, c)
	if dr.Detections != 1 {
		t.Fatalf("detections = %d, want 1", dr.Detections)
	}
	if len(dr.Generations) != 2 || dr.Generations[1].Reason != "drift" {
		t.Fatalf("registry after recal = %+v", dr.Generations)
	}
	if dr.Generations[1].DetectedAt == 0 {
		t.Fatal("generation lost its detection sample")
	}

	// The install went through a version bump: the stack serves the new
	// truth under a strictly newer version.
	iface, v1, _ := srv.Registry().Get("svc")
	if v1 <= v0 {
		t.Fatalf("version did not bump: %d -> %d", v0, v1)
	}
	if dr.CurrentVersion != v1 {
		t.Fatalf("registry current version %d != live %d", dr.CurrentVersion, v1)
	}
	pred, err := iface.ExpectedJoules("req", core.Num(10))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(pred), 21.6; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("recalibrated prediction %v, want %v", got, want)
	}

	// Post-recal monitoring returns to stable with no further detections.
	for i := 0; i < 10; i++ {
		if err := srv.DriftStep(ctx); err != nil {
			t.Fatal(err)
		}
	}
	dr = mustDrift(t, c)
	if dr.Monitor.State != drift.StateStable || dr.Detections != 1 || dr.EnergyBugs != 0 ||
		dr.ControllerStatus.Generations != 2 || len(dr.Generations) != 2 ||
		dr.Recalibrations != 1 || dr.StepErrors != 0 || dr.Steps < 20 {
		t.Fatalf("post-recal drift status = %+v", dr)
	}

	// /v1/drift is the one report of calibration state: /v1/stats carries
	// none of it.
	resp, err := http.Get(c.Base() + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for k := range raw {
		if strings.HasPrefix(k, "drift_") || strings.HasPrefix(k, "recal") {
			t.Errorf("/v1/stats restates calibration state in %q", k)
		}
	}
	stats, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Each install invalidates the layer cache via the version bump.
	if stats.LayerInvalidations == 0 {
		t.Fatal("recalibration did not note a layer invalidation")
	}
	hz, err := c.HealthzCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hz.DriftEnabled || hz.Generation != 2 || hz.Recalibrating {
		t.Fatalf("healthz after recal = %+v", hz)
	}
}

func mustDrift(t *testing.T, c *Client) *DriftReport {
	t.Helper()
	dr, err := c.DriftCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return dr
}

// TestDriftLoopRunsInBackground: the ticker loop observes, detects, and
// repairs without explicit stepping, and stops on ctx cancel.
func TestDriftLoopRunsInBackground(t *testing.T) {
	rig, c, done := newDriftDaemon(t, drift.Config{Warmup: 3})
	defer done()
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan error, 1)
	go func() { loopDone <- rig.srv.RunDriftLoop(ctx, time.Millisecond) }()

	// Let the monitor learn its baseline from the healthy device before
	// injecting drift — otherwise warmup absorbs the shift as the norm.
	deadline := time.Now().Add(10 * time.Second)
	for mustDrift(t, c).Monitor.State != drift.StateStable {
		if time.Now().After(deadline) {
			t.Fatalf("monitor never stabilized: %+v", mustDrift(t, c))
		}
		time.Sleep(2 * time.Millisecond)
	}

	rig.setTruth(2.3) // 15% drift from the seeded calibration
	for mustDrift(t, c).Recalibrations == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("loop never recalibrated; drift = %+v", mustDrift(t, c))
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-loopDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("loop exit = %v, want context.Canceled", err)
	}
	dr := mustDrift(t, c)
	if dr.Steps == 0 || dr.Detections == 0 || dr.Recalibrations == 0 ||
		len(dr.Generations) < 2 || len(dr.Generations) != dr.ControllerStatus.Generations {
		t.Fatalf("loop left no trace: %+v", dr)
	}
}

// TestDriftDocExamples: docs/DRIFT.md's /v1/drift and /v1/healthz
// examples decode strictly into the types the daemon serves, so a field
// renamed or dropped on either side fails here.
func TestDriftDocExamples(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "DRIFT.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range []struct {
		heading string
		into    any
	}{
		{"### `GET /v1/drift`\n", &DriftReport{}},
		{"### `GET /v1/healthz`\n", &HealthzResponse{}},
	} {
		_, section, ok := strings.Cut(string(doc), ex.heading)
		if end := strings.Index(section, "\n#"); end >= 0 {
			section = section[:end]
		}
		_, example, found := strings.Cut(section, "```json\n")
		example, _, closed := strings.Cut(example, "```")
		if !ok || !found || !closed {
			t.Fatalf("docs/DRIFT.md: no JSON example under %q", ex.heading)
		}
		dec := json.NewDecoder(strings.NewReader(example))
		dec.DisallowUnknownFields()
		if err := dec.Decode(ex.into); err != nil {
			t.Errorf("docs/DRIFT.md's example under %q: %v", ex.heading, err)
		}
	}
}

// TestDriftLoopRequiresController: loop and step fail cleanly unattached.
func TestDriftLoopRequiresController(t *testing.T) {
	srv, _, done := newTestDaemon(t, Config{})
	defer done()
	if err := srv.DriftStep(context.Background()); err == nil {
		t.Fatal("DriftStep without controller succeeded")
	}
	if err := srv.RunDriftLoop(context.Background(), time.Second); err == nil {
		t.Fatal("RunDriftLoop without controller succeeded")
	}
}

// TestInstallCalibrationErrors: unknown stack or nil device interface
// surface as errors.
func TestInstallCalibrationErrors(t *testing.T) {
	srv, _, done := newTestDaemon(t, Config{})
	defer done()
	if _, err := srv.InstallCalibration("missing", "hw", "dev", mkDevice("dev", 1)); err == nil {
		t.Fatal("install into unknown stack succeeded")
	}
	if _, err := srv.InstallCalibration("svc", "hw", "dev", nil); err == nil {
		t.Fatal("nil device interface accepted")
	}
}
