package fleet

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

// heldSources are what every fleet of TestRoutedHeldAnswers registers: the
// probe stacks, and ml_webservice, whose accelerator it rebinds.
var heldSources = []string{probeEIL(), fleetEIL, fleetAltHW}

// heldReference is the one-node answer to reqs, with ml_webservice rebound
// or not.
func heldReference(t *testing.T, reqs []eisvc.EvalRequest, rebound bool) []eisvc.BatchEvalItem {
	t.Helper()
	ref := startFleet(t, Config{Nodes: 1, Replication: 1})
	c := eisvc.NewClient(ref.Nodes()[0].URL)
	for _, src := range heldSources {
		if _, err := c.RegisterCtx(context.Background(), src); err != nil {
			t.Fatal(err)
		}
	}
	if rebound {
		if _, err := c.RebindCtx(context.Background(), "ml_webservice", "accel", "accel_hw_v2"); err != nil {
			t.Fatal(err)
		}
	}
	items, err := c.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

// TestRoutedHeldAnswers: one client sends the same 96-item batch over 24
// keys through a 3-node router four times — cold, warm (its answers become
// held), held, and held again after a rebind of one stack with a node
// killed as the batch reaches it. Every item is bit-identical to a one-node
// reference, with the status and Deduped, Cached, Peer and Coalesced flags
// a client holding nothing gets from a twin fleet put through the same
// steps. The held items cross the router behind their prefixes and come
// back held — except the rebound stack's, which come back in full at the
// new version.
func TestRoutedHeldAnswers(t *testing.T) {
	type twin struct {
		f  *Fleet
		rc *refCounter
		c  *eisvc.Client
	}
	twins := make([]*twin, 2) // [0] is sent the batch by a new client each time, [1] by one client
	for k := range twins {
		f := startFleet(t, Config{Nodes: 3})
		rt, url, shutdown, err := f.StartRouter("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(shutdown)
		rc := &refCounter{inner: rt.tr, f: f}
		rt.tr = rc
		tw := &twin{f: f, rc: rc, c: eisvc.NewClient(url)}
		for _, src := range heldSources {
			if _, err := tw.c.RegisterCtx(context.Background(), src); err != nil {
				t.Fatal(err)
			}
		}
		twins[k] = tw
	}
	c := twins[1].c
	distinct := probeReqs(c, 500, 18)
	for k := 0; k < 6; k++ {
		distinct = append(distinct, c.EvalRequestFor("ml_webservice", "handle", traceArgs(k), core.Expected()))
	}
	reqs := make([]eisvc.EvalRequest, 96) // each distinct item four times, spread out
	for i := range reqs {
		reqs[i] = distinct[(i*7)%len(distinct)]
	}
	want := heldReference(t, reqs, false)
	for _, phase := range []struct {
		name string
		held uint64 // distinct items that come back held
	}{{"cold", 0}, {"warm", 0}, {"held", 24}, {"rebound, node killed mid-batch", 18}} {
		var version uint64
		if phase.held == 18 {
			for _, tw := range twins {
				v, err := tw.c.RebindCtx(context.Background(), "ml_webservice", "accel", "accel_hw_v2")
				if err != nil {
					t.Fatal(err)
				}
				version = v
				tw.rc.victim = mustNode(t, tw.f, tw.f.OwnersOf("ml_webservice")[0])
			}
			want = heldReference(t, reqs, true)
		}
		fresh, err := eisvc.NewClient(twins[0].c.Base()).EvalBatchCtx(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		before := c.Counters().Held
		got, err := c.EvalBatchCtx(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.Counters().Held - before; n != phase.held {
			t.Errorf("%s: %d answers came back held, want %d", phase.name, n, phase.held)
		}
		sameItems(t, phase.name+", holding nothing", fresh, want)
		sameItems(t, phase.name+", held", got, want)
		for i := range reqs {
			a, b := fresh[i], got[i]
			if a.Status != b.Status || a.Deduped != b.Deduped || a.Cached != b.Cached || a.Peer != b.Peer || a.Coalesced != b.Coalesced {
				t.Errorf("%s: item %d answered %+v held, %+v holding nothing", phase.name, i, b, a)
			}
			if version != 0 && b.Interface == "ml_webservice" && b.Version != version {
				t.Errorf("%s: item %d at version %d, want %d", phase.name, i, b.Version, version)
			}
		}
	}
	for _, tw := range twins {
		if n, _ := tw.f.Node(tw.rc.victim.ID); n.Live() {
			t.Fatal("the victim was never killed")
		}
	}
}

// badHeldFrames are batch-request frames with held prefixes no encoder
// writes, around one full item's bytes.
func badHeldFrames(item []byte) map[string][]byte {
	frame := func(n int, parts ...[]byte) []byte {
		var b bytes.Buffer
		eisvc.BeginBatchEvalRequest(&b, n)
		for _, p := range parts {
			b.Write(p)
		}
		return b.Bytes()
	}
	prefix := eisvc.AppendHeldPrefix(nil, 1)
	return map[string][]byte{
		"a truncated tag":        frame(2, item, prefix[:eisvc.HeldPrefixLen-3]),
		"a held prefix on a ref": frame(2, item, prefix, eisvc.AppendBatchRef(nil, 0)),
		"two prefixes":           frame(1, prefix, prefix, item),
		"a prefix naming tag 0":  frame(1, eisvc.AppendHeldPrefix(nil, 0), item),
	}
}

// TestRouterHeldEdges: the router forwards a held item behind its prefix
// to a caller that reads binary, and strips the prefix for one that reads
// JSON, which has no held answers: every item comes back with its
// distribution. An item no node could serve is a 503 named after the item
// behind its prefix.
func TestRouterHeldEdges(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	_, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), probeEIL()); err != nil {
		t.Fatal(err)
	}
	reqs := probeReqs(c, 700, 2*probeStacks)
	want, err := c.EvalBatchCtx(context.Background(), reqs) // cold: nothing held yet
	if err != nil {
		t.Fatal(err)
	}
	full := fullFrame(t, reqs)
	items, err := eisvc.WalkBatchEvalRequest(nil, full)
	if err != nil {
		t.Fatal(err)
	}
	var held bytes.Buffer
	eisvc.BeginBatchEvalRequest(&held, len(items))
	for i, it := range items {
		held.Write(eisvc.AppendHeldPrefix(nil, eisvc.DistTag(want[i].Dist)))
		held.Write(full[it.Off:it.End])
	}
	post := func(accept string) []eisvc.BatchEvalItem {
		hop := eisvc.Hop{ContentType: eisvc.BinaryContentType, Accept: accept}
		resp, err := hop.Send(context.Background(), http.DefaultTransport, http.MethodPost, c.Base()+eisvc.EvalBatchEndpoint.Path, held.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		got, err := eisvc.EvalBatchEndpoint.Response.Decode(resp.Header.Get("Content-Type"), body)
		if err != nil || len(got.Results) != len(reqs) {
			t.Fatalf("accept %q: %d %s, err %v", accept, resp.StatusCode, body, err)
		}
		return got.Results
	}
	for i, it := range post(eisvc.BinaryContentType) {
		if it.Status != http.StatusOK || it.Dist != nil {
			t.Errorf("binary: item %d came back %+v, not held", i, it)
		}
	}
	sameItems(t, "JSON", post("application/json"), want)

	for _, n := range f.Nodes() {
		if err := f.KillNode(n.ID); err != nil {
			t.Fatal(err)
		}
	}
	for i, it := range post(eisvc.BinaryContentType) {
		if it.Status != http.StatusServiceUnavailable || it.Interface != reqs[i].Interface || it.Method != reqs[i].Method {
			t.Errorf("no node up: item %d came back %+v", i, it)
		}
	}
}
