package main

import (
	"context"
	"net"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"energyclarity/internal/drift"
	"energyclarity/internal/eisvc"
)

// TestServeDrainsOnSignal drives the SIGTERM path through the injectable
// signal channel: the daemon serves, takes a signal, drains, and exits
// cleanly within the drain timeout.
func TestServeDrainsOnSignal(t *testing.T) {
	srv := eisvc.NewServer(eisvc.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sig := make(chan os.Signal, 1)
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- serve(srv, ln, 5*time.Second, sig, &out) }()

	// The listener is already bound, so this waits for accept, not for a
	// retry: no poll is needed.
	hz, err := eisvc.NewClient("http://" + ln.Addr().String()).HealthzCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !hz.Ready || hz.Draining {
		t.Fatalf("fresh daemon healthz = %+v, want ready", hz)
	}

	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	if !srv.Draining() {
		t.Error("server not draining after the signal path")
	}
	got := out.String()
	for _, want := range []string{"draining", "drained; bye"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRecalDetectsAging drives the binary's own continuous-calibration
// wiring — attachDrift's CNN probe classes and the install into
// cnn_forward's "hw" binding — through a full cycle, read through
// /v1/drift: settle to a stable baseline, age the silicon 5% across the
// board, and require the drift to be detected and a second calibration
// generation installed.
func TestRecalDetectsAging(t *testing.T) {
	srv := eisvc.NewServer(eisvc.Config{})
	rig, err := seedFig1(srv)
	if err != nil {
		t.Fatal(err)
	}
	if err := attachDrift(srv, rig, 4); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c := eisvc.NewClient(ts.URL)
	ctx := context.Background()
	var dr *eisvc.DriftReport
	step := func(want func() bool, what string) {
		t.Helper()
		for i := 0; i < 300; i++ {
			if err := srv.DriftStep(ctx); err != nil {
				t.Fatalf("drift step: %v", err)
			}
			if dr, err = c.DriftCtx(ctx); err != nil {
				t.Fatal(err)
			}
			if want() {
				return
			}
		}
		t.Fatalf("%s not reached in 300 steps", what)
	}
	step(func() bool { return dr.Monitor.State == drift.StateStable }, "stable baseline")
	rig.GPU.InjectAging(0.05)
	step(func() bool { return len(dr.Generations) >= 2 }, "recalibration")

	if dr.Detections != 1 || dr.EnergyBugs != 0 || dr.Recalibrations != 1 || dr.StepErrors != 0 ||
		len(dr.Generations) != dr.ControllerStatus.Generations {
		t.Fatalf("drift report after recalibration = %+v", dr)
	}
	last := dr.Generations[len(dr.Generations)-1]
	if last.Reason != "drift" || last.Version == 0 || last.Version != dr.CurrentVersion {
		t.Fatalf("bad generation %+v", last)
	}
	if _, ver, _ := srv.Registry().Get("cnn_forward"); ver != last.Version {
		t.Errorf("cnn_forward at version %d, generation %d installed version %d", ver, len(dr.Generations), last.Version)
	}
}

func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-load", "/nonexistent/file.eil"}, &out); err == nil {
		t.Error("missing -load file accepted")
	}
	// The self-test drills are tests now, not flags.
	for _, flag := range []string{"-definitely-not-a-flag", "-smoke", "-optimize"} {
		if err := run([]string{flag}, &out); err == nil {
			t.Errorf("%s accepted", flag)
		}
	}
	// -recal has nothing to probe without the seeded rig.
	if err := run([]string{"-recal"}, &out); err == nil {
		t.Error("-recal without -fig1 accepted")
	}
}
