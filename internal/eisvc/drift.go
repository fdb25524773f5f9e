package eisvc

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/counters"
	"energyclarity/internal/drift"
)

// Continuous calibration in the daemon: a drift.Controller attaches to the
// server, a background loop probes the live device and feeds the monitor,
// and a drift verdict triggers recalibration — run under the same
// admission control as client evaluations, so background refitting
// competes for a worker slot instead of oversubscribing the device while
// it is serving. The registry of calibration generations is served at
// GET /v1/drift with the loop's counters; /v1/healthz says whether a
// recalibration is running.

// AttachDrift connects a continuous-calibration controller. Attach before
// starting RunDriftLoop; attaching replaces any previous controller.
func (s *Server) AttachDrift(ctl *drift.Controller) {
	s.driftCtl.Store(ctl)
}

// DriftController returns the attached controller, nil if none.
func (s *Server) DriftController() *drift.Controller {
	return s.driftCtl.Load()
}

// DriftStep runs one iteration of the monitoring loop: one probe
// observation and — when the monitor has latched a drift verdict — a full
// recalibration. The recalibration holds an admission worker slot for its
// duration (bounded by ctx), so it queues behind client work under load
// exactly like an evaluation would.
func (s *Server) DriftStep(ctx context.Context) error {
	ctl := s.DriftController()
	if ctl == nil {
		return fmt.Errorf("eisvc: no drift controller attached")
	}
	atomic.AddUint64(&s.driftCounts.Steps, 1)
	if _, err := ctl.Observe(); err != nil {
		atomic.AddUint64(&s.driftCounts.StepErrors, 1)
		return err
	}
	if !ctl.NeedsRecal() {
		return nil
	}
	if err := s.adm.acquire(ctx); err != nil {
		atomic.AddUint64(&s.driftCounts.StepErrors, 1)
		return fmt.Errorf("eisvc: recalibration admission: %w", err)
	}
	defer s.adm.release()
	if _, err := ctl.Recalibrate("drift"); err != nil {
		atomic.AddUint64(&s.driftCounts.StepErrors, 1)
		return err
	}
	atomic.AddUint64(&s.driftCounts.Recalibrations, 1)
	return nil
}

// RunDriftLoop drives DriftStep every interval until ctx is cancelled. It
// skips steps while the server drains (a draining daemon should not put
// new probe work on the device) and keeps running through step errors —
// they are counted and visible in /v1/drift. Run it in a goroutine.
func (s *Server) RunDriftLoop(ctx context.Context, interval time.Duration) error {
	if s.DriftController() == nil {
		return fmt.Errorf("eisvc: no drift controller attached")
	}
	if interval <= 0 {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			if s.Draining() {
				continue
			}
			_ = s.DriftStep(ctx) // counted in StepErrors; the loop survives
		}
	}
}

// InstallCalibration atomically installs a freshly calibrated device
// interface under the stack's binding path: register the device interface
// under its own name (fresh version), Rebind the stack onto it (the stack
// gets a fresh version too — in-flight evaluations keep their snapshot),
// and note the invalidation on the layer cache. Returns the stack's new
// version. This is the InstallFunc half of a drift.Hooks wired to a
// served stack.
func (s *Server) InstallCalibration(stack, path, device string, dev *core.Interface) (uint64, error) {
	if _, err := s.reg.RegisterInterface(device, dev); err != nil {
		return 0, err
	}
	version, err := s.reg.Rebind(stack, path, device)
	if err != nil {
		return 0, err
	}
	s.noteInvalidation()
	return version, nil
}

// --- handlers ---

// handleHealthz is the daemon's one health probe: it answers 200 whenever
// the process serves (draining included), and says whether the daemon is
// ready (accepting evaluations), draining, and recalibrating — what load
// balancers and drain orchestration need to know about evaluation traffic
// right now.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	resp := HealthzResponse{
		Ready:      !s.Draining(),
		Draining:   s.Draining(),
		Interfaces: s.reg.Len(),
	}
	if ctl := s.DriftController(); ctl != nil {
		resp.DriftEnabled = true
		resp.Recalibrating = ctl.Recalibrating()
		resp.Generation = ctl.Status().Generations
	}
	WriteJSON(w, http.StatusOK, resp)
}

// handleDrift serves the controller's status and generation registry with
// the loop's counters.
func (s *Server) handleDrift(w http.ResponseWriter, _ *http.Request) {
	ctl := s.DriftController()
	if ctl == nil {
		WriteError(w, http.StatusNotFound, "drift monitoring not enabled")
		return
	}
	rep := DriftReport{ControllerStatus: ctl.Status(), Generations: ctl.Generations()}
	counters.Add(&rep.driftCounters, &s.driftCounts)
	WriteJSON(w, http.StatusOK, rep)
}
