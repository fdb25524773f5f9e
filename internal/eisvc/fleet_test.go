package eisvc

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"energyclarity/internal/core"
)

// TestRegistrySnapshotMerge: a snapshot replays a registry's entries and
// versions exactly; stale snapshots never regress a newer local entry.
func TestRegistrySnapshotMerge(t *testing.T) {
	a := NewRegistry()
	if _, err := a.RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()

	b := NewRegistry()
	if applied := b.ApplySnapshot(snap); applied != 2 {
		t.Fatalf("applied %d entries, want 2", applied)
	}
	for _, name := range []string{"accel_hw", "ml_webservice"} {
		ia, va, _ := a.Get(name)
		ib, vb, ok := b.Get(name)
		if !ok || va != vb || ia != ib {
			t.Fatalf("%s: replica has (iface=%p v=%d), primary (iface=%p v=%d)", name, ib, vb, ia, va)
		}
	}

	// Re-applying the same snapshot is a no-op.
	if applied := b.ApplySnapshot(snap); applied != 0 {
		t.Fatalf("duplicate snapshot applied %d entries, want 0", applied)
	}

	// Advance the primary (rebind bumps ml_webservice) and replicate: only
	// the changed entry installs.
	if _, err := a.RegisterSource(altHW); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Rebind("ml_webservice", "accel", "accel_hw_v2"); err != nil {
		t.Fatal(err)
	}
	if applied := b.ApplySnapshot(a.Snapshot()); applied != 2 {
		t.Fatalf("incremental snapshot applied %d entries, want 2 (accel_hw_v2 + rebound ml_webservice)", applied)
	}
	_, va, _ := a.Get("ml_webservice")
	_, vb, _ := b.Get("ml_webservice")
	if va != vb {
		t.Fatalf("rebind version diverged: primary %d, replica %d", va, vb)
	}

	// A stale snapshot (pre-rebind) must not regress the replica.
	if applied := b.ApplySnapshot(snap); applied != 0 {
		t.Fatalf("stale snapshot applied %d entries, want 0", applied)
	}
	if _, v, _ := b.Get("ml_webservice"); v != vb {
		t.Fatalf("stale snapshot regressed version to %d, want %d", v, vb)
	}

	// The replicated counter never re-issues old versions: a local
	// registration on the replica gets a version above everything seen.
	v, err := b.RegisterInterface("local", localIface(t))
	if err != nil {
		t.Fatal(err)
	}
	if v <= vb {
		t.Fatalf("replica assigned version %d, want > %d", v, vb)
	}
}

// TestSnapshotDuringRebindRace hammers one registry with concurrent
// rebinds, snapshots, and stale-snapshot applications — the satellite
// race-mode coverage. The invariant: after the dust settles, applying
// any snapshot taken during the run never regresses the final version.
func TestSnapshotDuringRebindRace(t *testing.T) {
	r := NewRegistry()
	if _, err := r.RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RegisterSource(altHW); err != nil {
		t.Fatal(err)
	}
	stale := r.Snapshot()

	var wg sync.WaitGroup
	var snaps [8]RegistrySnapshot
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			target := "accel_hw"
			if g%2 == 0 {
				target = "accel_hw_v2"
			}
			for i := 0; i < 25; i++ {
				switch g % 4 {
				case 0, 1:
					if _, err := r.Rebind("ml_webservice", "accel", target); err != nil {
						t.Error(err)
						return
					}
				case 2:
					snaps[g] = r.Snapshot()
				default:
					r.ApplySnapshot(stale)
				}
			}
		}(g)
	}
	wg.Wait()

	_, final, _ := r.Get("ml_webservice")
	for _, snap := range snaps {
		r.ApplySnapshot(snap)
	}
	r.ApplySnapshot(stale)
	if _, v, _ := r.Get("ml_webservice"); v != final {
		t.Fatalf("replayed snapshots moved version %d -> %d", final, v)
	}
}

// TestCacheLookupEndpoint: /v1/cachelookup returns warm memo entries
// bit-exactly, misses cleanly, and keeps answering while draining.
func TestCacheLookupEndpoint(t *testing.T) {
	srv, c, done := newTestDaemon(t, Config{NodeID: "node-7"})
	defer done()
	if _, err := c.Register(testEIL); err != nil {
		t.Fatal(err)
	}
	opts := core.EvalOptions{Mode: core.ModeExpected}
	want, _, err := c.Eval("ml_webservice", "handle", []core.Value{reqArg()}, opts)
	if err != nil {
		t.Fatal(err)
	}

	_, version, _ := srv.Registry().Get("ml_webservice")
	args := []core.Value{reqArg()}
	key := memoKey("ml_webservice", version, "handle", args, opts)
	if got := KeyStack(key); got != "ml_webservice" {
		t.Fatalf("KeyStack(%q) = %q", key, got)
	}

	// One probe, three keys: the answers come back in key order.
	got, err := c.CacheLookup(key+"|cold", key, key+"|colder")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Found || !got[1].Found || got[2].Found {
		t.Fatalf("mixed probe answered %+v, want only the middle key found", got)
	}
	sameDist(t, "cachelookup", got[1].Dist, want)

	// A draining node keeps donating its cache.
	srv.BeginDrain()
	if got, err := c.CacheLookup(key); err != nil || !got[0].Found {
		t.Fatalf("draining node: %+v err=%v, want hit", got, err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NodeID != "node-7" {
		t.Errorf("stats node_id = %q, want node-7", st.NodeID)
	}
	// The counters are per key, not per request.
	if st.PeerServed != 4 || st.PeerServedHits != 2 {
		t.Errorf("peer_served=%d (want 4), peer_served_hits=%d (want 2)", st.PeerServed, st.PeerServedHits)
	}
}

// TestCacheLookupBounds: a probe is remote input. More keys than MaxBatch,
// an empty key and an empty list are each a 400 in both codecs, and a
// response whose result count differs from the request's is an error at
// the client, not a panic.
func TestCacheLookupBounds(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{MaxBatch: 4})
	defer done()
	for _, binary := range []bool{false, true} {
		c.Binary = binary
		for name, keys := range map[string][]string{
			"over MaxBatch": {"a", "b", "c", "d", "e"},
			"empty key":     {"a", "", "c"},
			"empty list":    nil,
		} {
			_, err := c.CacheLookup(keys...)
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
				t.Errorf("binary=%v %s: err = %v, want 400", binary, name, err)
			}
		}
		if got, err := c.CacheLookup("a", "b", "c", "d"); err != nil || len(got) != 4 {
			t.Errorf("binary=%v: MaxBatch keys: %d answers, err=%v", binary, len(got), err)
		}
	}

	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		CacheLookupEndpoint.Write(w, r, &CacheLookupResponse{Results: make([]CacheLookupResult, 1)})
	}))
	defer short.Close()
	for _, binary := range []bool{false, true} {
		sc := NewClient(short.URL)
		sc.Binary = binary
		if got, err := sc.CacheLookup("a", "b"); err == nil {
			t.Errorf("binary=%v: 1 result for 2 keys accepted: %+v", binary, got)
		}
	}
}

// TestPeerLookupServesFleet: node B, cold, answers from node A's warm
// memo through the peer hook — without running a single evaluation.
func TestPeerLookupServesFleet(t *testing.T) {
	srvA, cA, doneA := newTestDaemon(t, Config{NodeID: "node-a"})
	defer doneA()
	srvB, cB, doneB := newTestDaemon(t, Config{NodeID: "node-b"})
	defer doneB()

	if _, err := cA.Register(testEIL); err != nil {
		t.Fatal(err)
	}
	// Replicate the registry so versions (and memo keys) align.
	if applied := srvB.ApplyRegistrySnapshot(srvA.Registry().Snapshot()); applied != 2 {
		t.Fatalf("replicated %d entries, want 2", applied)
	}
	srvB.SetPeerLookup(func(ctx context.Context, keys []string) []PeerAnswer {
		answers, err := cA.CacheLookupCtx(ctx, keys)
		if err != nil {
			return make([]PeerAnswer, len(keys))
		}
		return answers
	})

	opts := core.EvalOptions{Mode: core.ModeMonteCarlo, Samples: 256, Seed: 11}
	args := []core.Value{reqArg()}
	want, _, err := cA.Eval("ml_webservice", "handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}

	got, resp, err := cB.Eval("ml_webservice", "handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameDist(t, "peer-forwarded answer", got, want)
	if !resp.Cached || !resp.Peer {
		t.Errorf("response cached=%v peer=%v, want both true", resp.Cached, resp.Peer)
	}
	if resp.Node != "node-b" {
		t.Errorf("response node = %q, want node-b", resp.Node)
	}

	st, err := cB.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluations != 0 {
		t.Errorf("node B ran %d evaluations, want 0 (peer hit)", st.Evaluations)
	}
	if st.PeerHits != 1 {
		t.Errorf("node B peer_hits = %d, want 1", st.PeerHits)
	}

	// Second ask: now in B's own memo; the peer is not consulted again.
	if _, resp, err = cB.Eval("ml_webservice", "handle", args, opts); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached || resp.Peer {
		t.Errorf("second ask cached=%v peer=%v, want local memo hit", resp.Cached, resp.Peer)
	}
}

// TestNodeHeader: every response from a named node carries X-Eisvc-Node.
func TestNodeHeader(t *testing.T) {
	srv := NewServer(Config{NodeID: "node-3"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Eisvc-Node"); got != "node-3" {
		t.Fatalf("X-Eisvc-Node = %q, want node-3", got)
	}

	anon := httptest.NewServer(NewServer(Config{}))
	defer anon.Close()
	resp, err = http.Get(anon.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Eisvc-Node"); got != "" {
		t.Fatalf("standalone daemon sent X-Eisvc-Node = %q, want none", got)
	}
}

// TestTransportTuning: the tuned transport lifts the per-host idle-conn
// cap that throttles fleet fan-out, and explicit knobs stick.
func TestTransportTuning(t *testing.T) {
	tr := NewTransport(TransportTuning{})
	if tr.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost {
		t.Errorf("default MaxIdleConnsPerHost = %d, want %d", tr.MaxIdleConnsPerHost, DefaultMaxIdleConnsPerHost)
	}
	if tr.MaxIdleConns < 16*DefaultMaxIdleConnsPerHost {
		t.Errorf("default MaxIdleConns = %d, want >= %d", tr.MaxIdleConns, 16*DefaultMaxIdleConnsPerHost)
	}
	if tr.MaxConnsPerHost != 0 {
		t.Errorf("default MaxConnsPerHost = %d, want 0 (unlimited)", tr.MaxConnsPerHost)
	}

	tr = NewTransport(TransportTuning{
		MaxIdleConnsPerHost: 8,
		MaxConnsPerHost:     16,
		MaxIdleConns:        32,
		IdleConnTimeout:     time.Minute,
	})
	if tr.MaxIdleConnsPerHost != 8 || tr.MaxConnsPerHost != 16 || tr.MaxIdleConns != 32 || tr.IdleConnTimeout != time.Minute {
		t.Errorf("explicit tuning not honored: %+v", tr)
	}

	c := NewClient("http://127.0.0.1:1").TuneTransport(TransportTuning{MaxIdleConnsPerHost: 4})
	got, ok := c.http.Transport.(*http.Transport)
	if !ok || got.MaxIdleConnsPerHost != 4 {
		t.Errorf("TuneTransport installed %T (per-host %d), want *http.Transport with 4", c.http.Transport, got.MaxIdleConnsPerHost)
	}
}
