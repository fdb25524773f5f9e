package eisvc

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/drift"
)

// Continuous calibration in the daemon: a drift.Controller attaches to the
// server, a background loop probes the live device and feeds the monitor,
// and a drift verdict triggers recalibration — run under the same
// admission control as client evaluations, so background refitting
// competes for a worker slot instead of oversubscribing the device while
// it is serving. The registry of calibration generations is served at
// GET /v1/drift; /v1/healthz and /v1/stats report the loop's state.

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
	s.driftSteps.Add(1)
	if _, err := ctl.Observe(); err != nil {
		s.driftErrors.Add(1)
		return err
	}
	if !ctl.NeedsRecal() {
		return nil
	}
	release, err := s.adm.acquire(ctx)
	if err != nil {
		s.driftErrors.Add(1)
		return fmt.Errorf("eisvc: recalibration admission: %w", err)
	}
	defer release()
	if _, err := ctl.Recalibrate("drift"); err != nil {
		s.driftErrors.Add(1)
		return err
	}
	s.recalibrations.Add(1)
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
			_ = s.DriftStep(ctx) // counted in driftErrors; the loop survives
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

// handleHealthz is the typed readiness probe: ready (accepting
// evaluations), draining, and whether a recalibration is running. Unlike
// the legacy GET /healthz (liveness: "the process answers"), /v1/healthz
// tells load balancers and drain orchestration what the daemon will do
// with evaluation traffic right now.
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

// handleDrift serves the drift monitor's state and the calibration
// generation registry.
func (s *Server) handleDrift(w http.ResponseWriter, _ *http.Request) {
	ctl := s.DriftController()
	if ctl == nil {
		WriteError(w, http.StatusNotFound, "drift monitoring not enabled")
		return
	}
	st := ctl.Status()
	resp := DriftResponse{
		State:          st.Monitor.State.String(),
		Samples:        st.Monitor.Samples,
		Baseline:       st.Monitor.Baseline,
		EWMA:           st.Monitor.EWMA,
		Shift:          st.Monitor.Shift,
		PHUp:           st.Monitor.PHUp,
		PHDown:         st.Monitor.PHDown,
		Lambda:         st.Monitor.Lambda,
		DetectedAt:     st.Monitor.DetectedAt,
		Offending:      st.Monitor.Offending,
		Detections:     st.Detections,
		EnergyBugs:     st.EnergyBugs,
		Recalibrating:  st.Recalibrating,
		CurrentVersion: st.CurrentVersion,
		Steps:          s.driftSteps.Load(),
		StepErrors:     s.driftErrors.Load(),
	}
	for _, c := range st.Monitor.Classes {
		resp.Classes = append(resp.Classes, DriftClassWire{
			Input: c.Input, Samples: c.Samples, Residual: c.Residual,
		})
	}
	for _, g := range ctl.Generations() {
		resp.Generations = append(resp.Generations, GenerationWire{
			Index:      g.Index,
			Version:    g.Version,
			Reason:     g.Reason,
			Device:     g.Coef.Device,
			InstrJ:     float64(g.Coef.Instr),
			L1J:        float64(g.Coef.L1),
			L2J:        float64(g.Coef.L2),
			VRAMJ:      float64(g.Coef.VRAM),
			StaticW:    float64(g.Coef.Static),
			DetectedAt: g.DetectedAt,
			Residual:   g.Residual,
			Time:       g.Time,
		})
	}
	WriteJSON(w, http.StatusOK, resp)
}
