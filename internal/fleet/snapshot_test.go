package fleet

import (
	"context"
	"fmt"
	"testing"

	"energyclarity/internal/eisvc"
)

// TestFleetBinaryRouting: a binary client's requests route through the
// fleet byte-for-byte identically to a JSON client's, so the binary
// repeat of a JSON request lands on the same node and is a memo hit.
func TestFleetBinaryRouting(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	_, jsonC := startTestRouter(t, f)
	jsonC.Binary = false
	if _, err := jsonC.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}
	binC := eisvc.NewClient(jsonC.Base())
	binC.ID = "fleet-bin"

	want := refDists(t, 4)
	for k := 0; k < 4; k++ {
		jd, jresp, err := jsonC.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("json class %d", k), jd, want[k])
		bd, bresp, err := binC.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("binary class %d", k), bd, want[k])
		if !bresp.Cached {
			t.Errorf("class %d: binary repeat was not cache-served", k)
		}
		if bresp.Node != jresp.Node {
			t.Errorf("class %d: binary repeat served by %s, want %s", k, bresp.Node, jresp.Node)
		}
	}

	// Batches through the binary codec answer bit-identically too.
	reqs := make([]eisvc.EvalRequest, 4)
	for k := range reqs {
		reqs[k] = binC.EvalRequestFor("ml_webservice", "handle", traceArgs(k), traceOpts)
	}
	items, err := binC.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for k, it := range items {
		if it.Error != "" {
			t.Fatalf("batch item %d: %s", k, it.Error)
		}
		d, err := it.Dist.Dist()
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("binary batch %d", k), d, want[k])
	}
}

// TestPlacementIgnoresHistory: where the router sends an eval is a
// function of the frame and the membership alone. A router that has served
// a partition and its heal places every repeat where a fresh router over
// the same fleet places it; a repeat whose answer the partition left on a
// stand-in is re-homed by its node's peer probe, and no repeat evaluates.
func TestPlacementIgnoresHistory(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	_, c := startTestRouter(t, f)
	_, fresh := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}
	const distinct = 8
	want := refDists(t, distinct)
	eval := func(c *eisvc.Client, k int) *eisvc.EvalResponse {
		t.Helper()
		d, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("class %d", k), d, want[k])
		return resp
	}

	// Class 0 warms its node; with that node cut off, every class is
	// served (class 0 re-evaluated) by the nodes left.
	cut := eval(c, 0).Node
	if err := f.PartitionNode(cut, true); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < distinct; k++ {
		if n := eval(c, k).Node; n == cut {
			t.Fatalf("class %d: partitioned %s still served", k, cut)
		}
	}
	if err := f.PartitionNode(cut, false); err != nil {
		t.Fatal(err)
	}

	before, peer := totalEvaluations(t, f), 0
	for k := 0; k < distinct; k++ {
		repeat, placed := eval(c, k), eval(fresh, k)
		if repeat.Node != placed.Node {
			t.Errorf("class %d: the router with a history sent it to %s, a fresh one to %s", k, repeat.Node, placed.Node)
		}
		if !repeat.Cached && !repeat.Peer {
			t.Errorf("class %d: the repeat after the heal was evaluated on %s", k, repeat.Node)
		}
		if repeat.Peer {
			peer++
		}
	}
	if after := totalEvaluations(t, f); after != before {
		t.Errorf("repeats after the heal evaluated: %d -> %d evaluations", before, after)
	}
	if peer == 0 {
		t.Errorf("no repeat was re-homed by a peer probe: the test no longer reaches one")
	}
}

// TestFleetRestartFromSnapshot: kill a warm node, restart it, and its
// memo comes back from the snapshot file — the warm trace replays
// entirely cache-served, bit-identical, with zero new evaluations.
func TestFleetRestartFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	f := startFleet(t, Config{Nodes: 3, SnapshotDir: dir})
	_, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}

	const distinct = 6
	want := refDists(t, distinct)
	served := make([]string, distinct)
	for k := 0; k < distinct; k++ {
		d, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("warmup %d", k), d, want[k])
		served[k] = resp.Node
	}
	if err := f.SaveCacheSnapshots(); err != nil {
		t.Fatal(err)
	}

	victim := served[0]
	if victim == "" {
		t.Fatal("no node attribution on warmup")
	}
	if err := f.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RestartNode(victim); err != nil {
		t.Fatal(err)
	}
	n, _ := f.Node(victim)
	st, err := n.peer.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.MemoLen == 0 {
		t.Fatal("restarted node's memo is empty — snapshot did not load")
	}

	evalsBefore := totalEvaluations(t, f)
	for k := 0; k < distinct; k++ {
		d, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(k), traceOpts)
		if err != nil {
			t.Fatal(err)
		}
		bitIdentical(t, fmt.Sprintf("replay %d", k), d, want[k])
		if !resp.Cached {
			t.Errorf("replay %d: not cache-served after restart", k)
		}
	}
	if after := totalEvaluations(t, f); after != evalsBefore {
		t.Errorf("replay re-evaluated: %d -> %d evaluations", evalsBefore, after)
	}
}

// totalEvaluations sums actual evaluation work across reachable nodes.
func totalEvaluations(t *testing.T, f *Fleet) uint64 {
	t.Helper()
	var total uint64
	for _, n := range f.Nodes() {
		if !n.reachable() {
			continue
		}
		st, err := n.peer.StatsCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		total += st.Evaluations
	}
	return total
}
