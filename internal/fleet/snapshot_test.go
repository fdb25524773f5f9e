package fleet

import (
	"context"
	"fmt"
	"testing"

	"energyclarity/internal/eisvc"
)

// TestFleetBinaryRoutingAndAffinity: a binary client's requests route
// through the fleet byte-for-byte identically to a JSON client's, and
// repeating a request steers it back to the node that served it last
// (the memo-affinity hint), so the repeat is a memo hit.
func TestFleetBinaryRoutingAndAffinity(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, jsonC := startTestRouter(t, f)
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
		// The binary repeat of the JSON request must land on the same node
		// (affinity) and be served from its memo, not re-evaluated.
		if !bresp.Cached {
			t.Errorf("class %d: binary repeat was not cache-served", k)
		}
		if bresp.Node != jresp.Node {
			t.Errorf("class %d: binary repeat served by %s, want %s (affinity)", k, bresp.Node, jresp.Node)
		}
	}
	// Every repeat above went where the ring sends it anyway: affinity
	// steered none of them.
	if c := rt.Counters(); c.AffinityHits != 0 {
		t.Errorf("affinity hits = %d before any failover, want 0", c.AffinityHits)
	}

	// Affinity steers a repeat after a failover: with class 0's preferred
	// owner partitioned, the other owner serves it; once healed, the ring
	// prefers the first owner again, but the repeat must go to the node
	// that holds the answer and be served from its memo.
	_, first, err := jsonC.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(0), traceOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PartitionNode(first.Node, true); err != nil {
		t.Fatal(err)
	}
	_, failover, err := jsonC.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(0), traceOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.PartitionNode(first.Node, false); err != nil {
		t.Fatal(err)
	}
	if failover.Node == first.Node {
		t.Fatalf("partitioned %s still served", first.Node)
	}
	d, repeat, err := jsonC.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(0), traceOpts)
	if err != nil {
		t.Fatal(err)
	}
	bitIdentical(t, "steered repeat", d, want[0])
	if repeat.Node != failover.Node || !repeat.Cached {
		t.Errorf("repeat after the heal served by %s (cached %v), want %s from its memo", repeat.Node, repeat.Cached, failover.Node)
	}
	if c := rt.Counters(); c.AffinityHits != 1 {
		t.Errorf("affinity hits = %d after one steered repeat, want 1", c.AffinityHits)
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
