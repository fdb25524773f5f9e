package main

import (
	"context"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"energyclarity/internal/eisvc"
)

// TestSmoke runs the full serve-smoke path: seed hardware, serve on a
// loopback port, register Fig. 1 over the wire, evaluate, check the memo
// and the ledger.
func TestSmoke(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-smoke"}, &out); err != nil {
		t.Fatalf("smoke failed: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"seeded calibrated cnn_forward", "serve-smoke ok", "memo hit"} {
		if !strings.Contains(got, want) {
			t.Errorf("smoke output missing %q:\n%s", want, got)
		}
	}
}

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

	c := eisvc.NewClient("http://" + ln.Addr().String())
	deadline := time.Now().Add(5 * time.Second)
	for { // wait until the daemon reports ready through the typed probe
		if hz, err := c.HealthzCtx(context.Background()); err == nil {
			if !hz.Ready || hz.Draining {
				t.Fatalf("fresh daemon healthz = %+v, want ready", hz)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
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

// TestSmokeWithRecal runs the continuous-calibration self-test: the smoke
// daemon monitors its own rig, the silicon is aged mid-run, and the drift
// loop must detect and install a second calibration generation.
func TestSmokeWithRecal(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-smoke", "-recal", "-drift-window", "4"}, &out); err != nil {
		t.Fatalf("recal smoke failed: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"continuous calibration armed", "drift-smoke ok", "generation 2 installed"} {
		if !strings.Contains(got, want) {
			t.Errorf("recal smoke output missing %q:\n%s", want, got)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-load", "/nonexistent/file.eil"}, &out); err == nil {
		t.Error("missing -load file accepted")
	}
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Error("unknown flag accepted")
	}
	// -recal has nothing to probe without the seeded rig.
	if err := run([]string{"-recal"}, &out); err == nil {
		t.Error("-recal without -fig1 accepted")
	}
}
