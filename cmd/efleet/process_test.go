//go:build unix

package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/fleet"
	"energyclarity/internal/proctest"
)

func TestMain(m *testing.M) { proctest.Main(m, main) }

// TestProcessServesAndWarmRestarts runs efleet as shipped, on a real
// port: eight request classes through the router, singly and as one
// batch; a SIGTERM that drains every node into its snapshot; and a
// restart whose nodes answer the same asks from those snapshots, bit for
// bit, without evaluating anything.
func TestProcessServesAndWarmRestarts(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-addr", "127.0.0.1:0", "-nodes", "3", "-fig1", "-snapshot-dir", dir}
	const classes = 8

	p, base := proctest.Start(t, "routing", args...)
	want := ask(t, base, classes)
	out, err := p.Stop(t)
	if err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, out)
	}
	for _, line := range []string{"draining 3 node(s)", "cache snapshots saved"} {
		if !strings.Contains(out, line) {
			t.Errorf("output missing %q:\n%s", line, out)
		}
	}
	if snaps, _ := filepath.Glob(filepath.Join(dir, "*.eisnap")); len(snaps) != 3 {
		t.Fatalf("%d snapshot files after the drain, want 3: %v", len(snaps), snaps)
	}

	p, base = proctest.Start(t, "routing", args...)
	got := ask(t, base, classes)
	for k := range want {
		if !sameBits(got[k], want[k]) {
			t.Errorf("class %d after restart: %v, want %v", k, got[k], want[k])
		}
	}
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var fs fleet.FleetStats
	if err := json.NewDecoder(resp.Body).Decode(&fs); err != nil {
		t.Fatal(err)
	}
	if fs.Aggregate.Evaluations != 0 {
		t.Errorf("restarted fleet evaluated %d time(s), want 0: every answer is in a snapshot", fs.Aggregate.Evaluations)
	}
	if out, err := p.Stop(t); err != nil {
		t.Fatalf("exit after SIGTERM: %v\n%s", err, out)
	}
}

// ask sends request classes 0..n-1 through the router one at a time and
// then as one batch, requires the two answers to each class to agree bit
// for bit, and returns them.
func ask(t *testing.T, base string, n int) []energy.Dist {
	t.Helper()
	ctx := context.Background()
	c := eisvc.NewClient(base)
	mc := core.MonteCarlo(256, 7)
	dists := make([]energy.Dist, n)
	batch := make([]eisvc.EvalRequest, n)
	for k := range dists {
		args := []core.Value{core.Record(map[string]core.Value{
			"image":  core.Num(float64(k)),
			"pixels": core.Num(640 * 480),
			"zeros":  core.Num(float64(1000 * (k + 1))),
		})}
		d, _, err := c.EvalCtx(ctx, "ml_webservice", "handle", args, mc)
		if err != nil {
			t.Fatalf("class %d: %v", k, err)
		}
		dists[k] = d
		batch[k] = c.EvalRequestFor("ml_webservice", "handle", args, mc)
	}
	items, err := c.EvalBatchCtx(ctx, batch)
	if err != nil {
		t.Fatal(err)
	}
	for k, it := range items {
		if it.Error != "" || it.Dist == nil {
			t.Fatalf("batch item %d: %+v", k, it)
		}
		d, err := it.Dist.Dist()
		if err != nil || !sameBits(d, dists[k]) {
			t.Fatalf("batch item %d: %v, %v; want %v as answered alone", k, d, err, dists[k])
		}
	}
	return dists
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
