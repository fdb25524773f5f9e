package eisvc

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
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

// FuzzRegistrySnapshot checks the replication merge against delivery
// order. The bytes script a primary: each byte may give one of four names
// a fresh version (a tree of its own, as a register or rebind would) and
// then emits a snapshot of the names its high bits pick, so a (name,
// version) pair always means the same tree — the primary's contract. Two
// replicas receive every snapshot, one in emission order and one in a
// shuffled order with repeats; the merge must never lower an entry's
// version, the replicas must converge on the newest version of every name
// delivered, a re-delivered snapshot must install nothing, and NextVersion
// must be the largest one delivered.
func FuzzRegistrySnapshot(f *testing.F) {
	f.Add([]byte{0xf4, 0x15, 0x3e, 0xff})
	f.Add([]byte{0x14, 0x14, 0x0c, 0xf7, 0x25, 0x81})
	f.Add([]byte{0x00, 0xf0})
	f.Fuzz(func(t *testing.T, script []byte) {
		names := [4]string{"a", "b", "c", "d"}
		var (
			trees   = map[uint64]*core.Interface{} // version -> the one tree it names
			current = map[string]uint64{}
			next    uint64
			snaps   []RegistrySnapshot
			order   []int // the second replica's deliveries
		)
		for i, op := range script {
			if op&4 != 0 {
				next++
				current[names[op&3]] = next
				trees[next] = core.New(names[op&3])
			}
			snap := RegistrySnapshot{NextVersion: next}
			for k, name := range names {
				if v, ok := current[name]; ok && op&(0x10<<k) != 0 {
					snap.Entries = append(snap.Entries, RegistryEntry{
						Name: name, Iface: trees[v], Source: "v" + strconv.FormatUint(v, 10), Version: v, Native: v%2 == 0,
					})
				}
			}
			snaps = append(snaps, snap)
			order = append(order, i)
			if op&8 != 0 {
				order = append(order, i)
			}
		}
		seed := int64(len(script))
		for _, op := range script {
			seed = seed*31 + int64(op)
		}
		rand.New(rand.NewSource(seed)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })

		var want RegistrySnapshot
		newest := map[string]RegistryEntry{}
		for _, snap := range snaps {
			want.NextVersion = max(want.NextVersion, snap.NextVersion)
			for _, e := range snap.Entries {
				if e.Version > newest[e.Name].Version {
					newest[e.Name] = e
				}
			}
		}
		for _, name := range names {
			if e, ok := newest[name]; ok {
				want.Entries = append(want.Entries, e)
			}
		}

		replay := func(order []int) *Registry {
			r := NewRegistry()
			seen := map[string]uint64{}
			for _, i := range order {
				r.ApplySnapshot(snaps[i])
				for _, e := range r.Snapshot().Entries {
					if e.Version < seen[e.Name] {
						t.Fatalf("snapshot %d lowered %s from version %d to %d", i, e.Name, seen[e.Name], e.Version)
					}
					seen[e.Name] = e.Version
				}
			}
			return r
		}
		inOrder := make([]int, len(snaps))
		for i := range inOrder {
			inOrder[i] = i
		}
		for _, r := range []*Registry{replay(inOrder), replay(order)} {
			if got := r.Snapshot(); got.NextVersion != want.NextVersion || !slices.Equal(got.Entries, want.Entries) {
				t.Fatalf("replica converged to %+v, want %+v", got, want)
			}
			for i, snap := range snaps {
				if n := r.ApplySnapshot(snap); n != 0 {
					t.Fatalf("re-delivering snapshot %d installed %d entries", i, n)
				}
			}
		}
	})
}

// TestCacheLookupEndpoint: /v1/cachelookup returns warm memo entries
// bit-exactly, misses cleanly, and keeps answering while draining.
func TestCacheLookupEndpoint(t *testing.T) {
	srv, c, done := newTestDaemon(t, Config{NodeID: "node-7"})
	defer done()
	if _, err := c.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	opts := core.EvalOptions{Mode: core.ModeExpected}
	want, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", []core.Value{reqArg()}, opts)
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
	got, _, err := c.CacheLookupCtx(context.Background(), []string{key + "|cold", key, key + "|colder"}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Found || !got[1].Found || got[2].Found {
		t.Fatalf("mixed probe answered %+v, want only the middle key found", got)
	}
	sameDist(t, "cachelookup", got[1].Dist, want)

	// A draining node keeps donating its cache.
	srv.BeginDrain()
	if got, _, err := c.CacheLookupCtx(context.Background(), []string{key}, false); err != nil || !got[0].Found {
		t.Fatalf("draining node: %+v err=%v, want hit", got, err)
	}
	st, err := c.StatsCtx(context.Background())
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

	// Asked for, the summary is the one key's fingerprint, in both codecs.
	for _, binary := range []bool{false, true} {
		c.Binary = binary
		_, sum, err := c.CacheLookupCtx(context.Background(), []string{key}, true)
		if err != nil || !slices.Equal(sum, []uint32{Fingerprint(key)}) {
			t.Errorf("binary=%v: summary %v err=%v, want [%d]", binary, sum, err, Fingerprint(key))
		}
	}
}

// TestCacheLookupBounds: a probe is remote input. More keys than maxBatch,
// an empty key and an empty list are each a 400 in both codecs, and a
// response whose result count differs from the request's is an error at
// the client, not a panic. A summary is left out, and the answer kept,
// when the summary would push the frame past MaxBodyBytes; an empty
// memo's summary is empty, not absent; and a summary out of order is an
// error at the client.
func TestCacheLookupBounds(t *testing.T) {
	_, c, done := newTestDaemon(t, Config{})
	defer done()
	if _, sum, err := c.CacheLookupCtx(context.Background(), []string{"k"}, true); err != nil || sum == nil || len(sum) != 0 {
		t.Errorf("empty memo: summary %v err=%v, want empty", sum, err)
	}
	// One entry of n points answers in 16n+64 bytes of frame, the one-key
	// summary takes 8 more: 1,048,571 points leave room for it, one more
	// point does not.
	for n, fits := range map[int]bool{1_048_571: true, 1_048_572: false} {
		xs, ps := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ps[i] = float64(i), 1/float64(n)
		}
		d, err := energy.FromSorted(xs, ps)
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(Config{})
		srv.memo.Put("big", d)
		var answer bytes.Buffer
		if err := srv.handleCacheLookup(nil, binaryFrame(&CacheLookupEndpoint.Request, &CacheLookupRequest{Keys: []string{"big"}, Summary: true}), &answer); err != nil {
			t.Fatal(err)
		}
		resp, err := CacheLookupEndpoint.Response.Decode(BinaryContentType, answer.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Results[0].Found || (resp.Summary != nil) != fits {
			t.Fatalf("%d points: found=%v summary=%v, want found and summary %v", n, resp.Results[0].Found, resp.Summary, fits)
		}
		resp.Summary = []uint32{Fingerprint("big")}
		if size := len(binaryFrame(&CacheLookupEndpoint.Response, resp)); (size <= MaxBodyBytes) != fits {
			t.Errorf("%d points: with the summary the frame is %d bytes; fits=%v under %d", n, size, fits, MaxBodyBytes)
		}
	}
	full := make([]string, maxBatch+1)
	for i := range full {
		full[i] = strconv.Itoa(i)
	}
	for _, binary := range []bool{false, true} {
		c.Binary = binary
		for name, keys := range map[string][]string{
			"over maxBatch": full,
			"empty key":     {"a", "", "c"},
			"empty list":    nil,
		} {
			_, _, err := c.CacheLookupCtx(context.Background(), keys, false)
			var apiErr *APIError
			if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
				t.Errorf("binary=%v %s: err = %v, want 400", binary, name, err)
			}
		}
		if got, _, err := c.CacheLookupCtx(context.Background(), full[:maxBatch], false); err != nil || len(got) != maxBatch {
			t.Errorf("binary=%v: maxBatch keys: %d answers, err=%v", binary, len(got), err)
		}
	}

	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeAnswer(t, CacheLookupEndpoint, w, r, &CacheLookupResponse{Results: make([]CacheLookupResult, 1)})
	}))
	defer short.Close()
	// A JSON answer's summary is checked by the client, a binary one's by
	// the decoder.
	disordered := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"results":[{"found":false}],"summary":[7,3]}`))
	}))
	defer disordered.Close()
	for _, binary := range []bool{false, true} {
		sc := NewClient(short.URL)
		sc.Binary = binary
		if got, _, err := sc.CacheLookupCtx(context.Background(), []string{"a", "b"}, false); err == nil {
			t.Errorf("binary=%v: 1 result for 2 keys accepted: %+v", binary, got)
		}
	}
	if _, sum, err := NewClient(disordered.URL).CacheLookupCtx(context.Background(), []string{"a"}, true); err == nil {
		t.Errorf("summary %v out of order accepted", sum)
	}
}

// TestPeerLookupServesFleet: node B, cold, answers from node A's warm
// memo through the peer hook — without running a single evaluation.
func TestPeerLookupServesFleet(t *testing.T) {
	srvA, cA, doneA := newTestDaemon(t, Config{NodeID: "node-a"})
	defer doneA()
	srvB, cB, doneB := newTestDaemon(t, Config{NodeID: "node-b"})
	defer doneB()

	if _, err := cA.RegisterCtx(context.Background(), testEIL); err != nil {
		t.Fatal(err)
	}
	// Replicate the registry so versions (and memo keys) align.
	if applied := srvB.ApplyRegistrySnapshot(srvA.Registry().Snapshot()); applied != 2 {
		t.Fatalf("replicated %d entries, want 2", applied)
	}
	srvB.SetPeerLookup(func(ctx context.Context, _ time.Time, keys []string) []PeerAnswer {
		answers, _, err := cA.CacheLookupCtx(ctx, keys, false)
		if err != nil {
			return make([]PeerAnswer, len(keys))
		}
		return answers
	})

	opts := core.EvalOptions{Mode: core.ModeMonteCarlo, Samples: 256, Seed: 11}
	args := []core.Value{reqArg()}
	want, _, err := cA.EvalCtx(context.Background(), "ml_webservice", "handle", args, opts)
	if err != nil {
		t.Fatal(err)
	}

	got, resp, err := cB.EvalCtx(context.Background(), "ml_webservice", "handle", args, opts)
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

	st, err := cB.StatsCtx(context.Background())
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
	if _, resp, err = cB.EvalCtx(context.Background(), "ml_webservice", "handle", args, opts); err != nil {
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
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Eisvc-Node"); got != "node-3" {
		t.Fatalf("X-Eisvc-Node = %q, want node-3", got)
	}

	anon := httptest.NewServer(NewServer(Config{}))
	defer anon.Close()
	resp, err = http.Get(anon.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Eisvc-Node"); got != "" {
		t.Fatalf("standalone daemon sent X-Eisvc-Node = %q, want none", got)
	}
}

// TestTransportTuning: every client NewClient makes shares one transport,
// tuned the fleet's way: the per-host idle-conn cap that throttles fleet
// fan-out lifted, room for 16 daemons' worth of idle conns, gzip off, and
// a write buffer a batch frame fits in.
func TestTransportTuning(t *testing.T) {
	a, b := NewClient("http://127.0.0.1:1"), NewClient("http://127.0.0.1:2")
	tr, ok := a.rt.(*http.Transport)
	if !ok || b.rt != a.rt || tr != defaultTransport {
		t.Fatalf("NewClient installed %T, %T; want the one shared *http.Transport", a.rt, b.rt)
	}
	for _, tr := range []*http.Transport{tr, NewTransport(TransportTuning{})} {
		if tr.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost || tr.MaxIdleConns != 16*DefaultMaxIdleConnsPerHost || !tr.DisableCompression || tr.WriteBufferSize != writeBufferSize {
			t.Errorf("transport: %d idle conns per host, %d in all, gzip off %v, a %d-byte write buffer; want %d, %d, true, %d",
				tr.MaxIdleConnsPerHost, tr.MaxIdleConns, tr.DisableCompression, tr.WriteBufferSize, DefaultMaxIdleConnsPerHost, 16*DefaultMaxIdleConnsPerHost, writeBufferSize)
		}
	}
}

// TestTransportCopiesNoBody: a request body of a sub-batch's size goes out
// of the connection's write buffer, not through a copy buffer. With
// net/http's 4 KiB default, a body of known length past it went to the
// connection's ReadFrom once the first 4 KiB were flushed, which allocates
// a buffer of what is left (here ≈ 16 KiB) for each request: 21 KB a
// round trip in all, 3 KB without it. The server is a bare loopback
// listener that answers every request with a canned 200 out of one
// buffer, allocating nothing per request, so the bytes counted are the
// client's; they must stay under half the body's size.
func TestTransportCopiesNoBody(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const size = 20 << 10
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go answerCanned(conn, size)
		}
	}()
	tr := NewTransport(TransportTuning{})
	defer tr.CloseIdleConnections()
	body, url := bytes.Repeat([]byte{'x'}, size), "http://"+ln.Addr().String()+"/"
	_, perTrip := countPerRun(50, func() {
		resp, err := Hop{}.Send(context.Background(), tr, http.MethodPost, url, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	})
	t.Logf("a %d-byte body: the client allocated %.0f bytes a round trip", size, perTrip)
	if perTrip >= size/2 {
		t.Errorf("the client allocated %.0f bytes a round trip, want < %d, half the body's size", perTrip, size/2)
	}
}

// answerCanned reads requests of a size-byte body off conn and answers each
// with an empty 200, until conn closes.
func answerCanned(conn net.Conn, size int) {
	defer conn.Close()
	buf, n := make([]byte, 4*size), 0
	ok := []byte("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
	for {
		head := bytes.Index(buf[:n], []byte("\r\n\r\n"))
		if end := head + 4 + size; head >= 0 && n >= end {
			if _, err := conn.Write(ok); err != nil {
				return
			}
			n = copy(buf, buf[end:n])
			continue
		}
		m, err := conn.Read(buf[n:])
		if err != nil {
			return
		}
		n += m
	}
}
