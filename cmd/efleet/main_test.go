package main

import (
	"context"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"energyclarity/internal/eisvc"
	"energyclarity/internal/fleet"
)

// TestServeDrainsOnSignal drives the SIGTERM path through the injectable
// signal channel: every node drains and serve returns.
func TestServeDrainsOnSignal(t *testing.T) {
	f, err := fleet.New(fleet.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rt, base, stop, err := f.StartRouter("")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	c := eisvc.NewClient(base)
	if _, err := c.HealthzCtx(context.Background()); err != nil {
		t.Fatalf("router not healthy: %v", err)
	}

	sig := make(chan os.Signal, 1)
	var out strings.Builder
	done := make(chan error, 1)
	go func() { done <- serve(f, rt, 5*time.Second, false, sig, &out) }()
	sig <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not exit after SIGTERM")
	}
	for _, n := range f.Nodes() {
		if !n.Server.Draining() {
			t.Errorf("%s not draining after the signal path", n.ID)
		}
	}
	got := out.String()
	for _, want := range []string{"draining 2 node(s)", "drained"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-load", "/nonexistent/file.eil"}, &out); err == nil {
		t.Error("missing -load file accepted")
	}
	// The self-test drills are tests and ebench experiments now, not flags.
	for _, flag := range []string{"-definitely-not-a-flag", "-smoke", "-sched", "-full"} {
		if err := run([]string{flag}, &out); err == nil {
			t.Errorf("%s accepted", flag)
		}
	}
}
