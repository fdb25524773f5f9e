//go:build unix

package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/mlservice"
	"energyclarity/internal/proctest"
)

func TestMain(m *testing.M) { proctest.Main(m, main) }

// accelEIL is a pure-EIL interface: nothing native beneath it, so the
// daemon serves it through a compiled program.
const accelEIL = `
interface accel_math {
  ecv boost: bernoulli(0.1) "DVFS boost active"
  func f(n) {
    let e = 2nJ * n * n
    if boost { return e * 1.5 }
    return e
  }
}`

// TestProcessServesAndWarmRestarts runs eid as shipped, on a real port:
// it answers in both codecs, compiles what it can, drains on SIGTERM into
// its snapshot, and a restart from that snapshot serves the same ask from
// the memo, bit for bit.
func TestProcessServesAndWarmRestarts(t *testing.T) {
	dir := t.TempDir()
	load := filepath.Join(dir, "fig1.eil")
	if err := os.WriteFile(load, []byte(mlservice.Fig1EIL), 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := filepath.Join(dir, "eid.eisnap")
	args := []string{"-addr", "127.0.0.1:0", "-fig1", "-load", load, "-snapshot", snapshot}
	ctx := context.Background()
	req := []core.Value{core.Record(map[string]core.Value{
		"image":  core.Num(1),
		"pixels": core.Num(640 * 480),
		"zeros":  core.Num(3e4),
	})}
	mc := core.MonteCarlo(2048, 7)

	p, base := proctest.Start(t, "serving on", args...)
	c := eisvc.NewClient(base)
	c.Binary = false // the JSON arm; bc below speaks binary
	if hz, err := c.HealthzCtx(ctx); err != nil || !hz.Ready || hz.Draining {
		t.Fatalf("fresh daemon healthz = %+v, %v; want ready", hz, err)
	}
	if _, _, err := c.EvalCtx(ctx, "ml_webservice", "handle", req, core.Expected()); err != nil {
		t.Fatalf("expected eval: %v", err)
	}
	if _, resp, err := c.EvalCtx(ctx, "ml_webservice", "handle", req, mc); err != nil || resp.Cached {
		t.Fatalf("first Monte Carlo eval: %+v, %v; want a memo miss", resp, err)
	}
	want, resp, err := c.EvalCtx(ctx, "ml_webservice", "handle", req, mc)
	if err != nil || !resp.Cached {
		t.Fatalf("repeat Monte Carlo eval: %+v, %v; want a memo hit", resp, err)
	}
	bc := eisvc.NewClient(base)
	if got, resp, err := bc.EvalCtx(ctx, "ml_webservice", "handle", req, mc); err != nil || !resp.Cached || !sameBits(got, want) {
		t.Fatalf("binary repeat: %+v, %v; want a memo hit bit-identical to the JSON answer", resp, err)
	}
	if _, err := c.RegisterCtx(ctx, accelEIL); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.EvalCtx(ctx, "accel_math", "f", []core.Value{core.Num(64)}, core.Expected()); err != nil {
		t.Fatalf("pure-EIL eval: %v", err)
	}
	st, err := c.StatsCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// accel_math runs compiled; handle's cnn binding is native, so it
	// falls back to the interpreter.
	if st.CompiledEvals == 0 || st.CompileFallbacks == 0 {
		t.Errorf("compiled_evals = %d, compile_fallbacks = %d; want both > 0", st.CompiledEvals, st.CompileFallbacks)
	}

	out, err := p.Stop(t)
	if err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, out)
	}
	for _, line := range []string{"draining", "drained; bye"} {
		if !strings.Contains(out, line) {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	if strings.Contains(out, "drain incomplete") {
		t.Errorf("drain did not complete:\n%s", out)
	}
	if _, err := os.Stat(snapshot); err != nil {
		t.Fatalf("no snapshot after the drain: %v", err)
	}

	// Registration order fixes the registry versions, so the restarted
	// daemon computes the same memo keys its snapshot holds.
	p, base = proctest.Start(t, "serving on", args...)
	if !regexp.MustCompile(`warm start: [1-9]\d* memo`).MatchString(p.Output()) {
		t.Fatalf("restart did not warm-start from %s:\n%s", snapshot, p.Output())
	}
	if got, resp, err := eisvc.NewClient(base).EvalCtx(ctx, "ml_webservice", "handle", req, mc); err != nil || !resp.Cached || !sameBits(got, want) {
		t.Fatalf("ask after restart: %+v, %v; want a memo hit bit-identical to before", resp, err)
	}
	if out, err := p.Stop(t); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, out)
	}
}

// sameBits reports whether two distributions are identical bit for bit.
func sameBits(a, b energy.Dist) bool {
	as, ap := a.View()
	bs, bp := b.View()
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if math.Float64bits(as[i]) != math.Float64bits(bs[i]) || math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
			return false
		}
	}
	return true
}
