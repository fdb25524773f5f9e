package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

// fullFrame is reqs as one batch frame with every item in full: the frame
// of a client that sends no refs.
func fullFrame(t *testing.T, reqs []eisvc.EvalRequest) []byte {
	t.Helper()
	var frame, one bytes.Buffer
	eisvc.BeginBatchEvalRequest(&frame, len(reqs))
	for i := range reqs {
		one.Reset()
		if err := eisvc.EncodeEvalRequest(&one, &reqs[i]); err != nil {
			t.Fatal(err)
		}
		frame.Write(one.Bytes()[eisvc.BatchHeaderLen-4:]) // past the magic and kind
	}
	return frame.Bytes()
}

// postFrame sends a binary batch frame to base and decodes the answer.
func postFrame(t *testing.T, base string, frame []byte) []eisvc.BatchEvalItem {
	t.Helper()
	hop := eisvc.Hop{ContentType: eisvc.BinaryContentType, Accept: eisvc.BinaryContentType}
	resp, err := hop.Send(context.Background(), http.DefaultTransport, http.MethodPost, base+eisvc.EvalBatchEndpoint.Path, frame)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, body)
	}
	got, err := eisvc.DecodeBatchEvalResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	return got.Results
}

// refCounter counts the ref items of the sub-batches a router forwards to
// a node that takes them, and kills victim, if set, when the first one is
// about to reach it: the node dies with a batch in flight.
type refCounter struct {
	inner  http.RoundTripper
	refs   atomic.Int64
	f      *Fleet
	victim *Node
	kill   sync.Once
}

func (rc *refCounter) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == eisvc.EvalBatchEndpoint.Path {
		body, _ := req.GetBody()
		frame, _ := io.ReadAll(body)
		items, err := eisvc.WalkBatchEvalRequest(nil, frame)
		if err != nil {
			return nil, fmt.Errorf("sub-batch frame: %w", err)
		}
		refs := 0
		for _, it := range items {
			if it.Ref > 0 {
				refs++
			}
		}
		if rc.victim != nil && strings.HasPrefix(rc.victim.URL, "http://"+req.URL.Host) {
			rc.kill.Do(func() { _ = rc.f.KillNode(rc.victim.ID) })
		}
		resp, err := rc.inner.RoundTrip(req)
		if err == nil {
			rc.refs.Add(int64(refs))
		}
		return resp, err
	}
	return rc.inner.RoundTrip(req)
}

// TestRoutedRefsAnswerAsFullItems: a batch whose items repeat crosses a
// 3-node router with its repeats as refs — each goes with the item it
// repeats, renumbered in its sub-batch, and the nodes' answer refs are
// renumbered back — and answers exactly as the same batch sent in full
// does to a twin fleet: every item bit-identical to a one-node reference,
// with the same status and Deduped, Cached and Peer flags. So it does cold,
// warm, and with a node killed as the batch reaches it.
func TestRoutedRefsAnswerAsFullItems(t *testing.T) {
	type twin struct {
		f     *Fleet
		rc    *refCounter
		c     *eisvc.Client
		url   string
		batch func(reqs []eisvc.EvalRequest) []eisvc.BatchEvalItem
	}
	twins := make([]*twin, 2) // [0] is sent every item in full, [1] refs
	for k := range twins {
		f := startFleet(t, Config{Nodes: 3})
		rt, url, shutdown, err := f.StartRouter("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(shutdown)
		rc := &refCounter{inner: rt.tr, f: f}
		rt.tr = rc
		tw := &twin{f: f, rc: rc, c: eisvc.NewClient(url), url: url}
		if _, err := tw.c.RegisterCtx(context.Background(), probeEIL()); err != nil {
			t.Fatal(err)
		}
		tw.batch = func(reqs []eisvc.EvalRequest) []eisvc.BatchEvalItem {
			if k == 0 {
				return postFrame(t, url, fullFrame(t, reqs))
			}
			items, err := tw.c.EvalBatchCtx(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			return items
		}
		twins[k] = tw
	}
	distinct := probeReqs(twins[0].c, 500, 24)
	reqs := make([]eisvc.EvalRequest, 96) // each distinct item four times, spread out
	for i := range reqs {
		reqs[i] = distinct[(i*7)%len(distinct)]
	}
	want := singleNodeReference(t, reqs)

	for _, phase := range []string{"cold", "warm", "node killed mid-batch"} {
		if phase == "node killed mid-batch" {
			for _, tw := range twins {
				tw.rc.victim = mustNode(t, tw.f, tw.f.OwnersOf(probeStack(0))[0])
			}
		}
		full, refd := twins[0].batch(reqs), twins[1].batch(reqs)
		sameItems(t, phase+", in full", full, want)
		sameItems(t, phase+", with refs", refd, want)
		for i := range reqs {
			a, b := full[i], refd[i]
			if a.Status != b.Status || a.Deduped != b.Deduped || a.Cached != b.Cached || a.Peer != b.Peer || a.Coalesced != b.Coalesced {
				t.Errorf("%s: item %d answered %+v with refs, %+v in full", phase, i, b, a)
			}
		}
	}
	for _, tw := range twins {
		if n, _ := tw.f.Node(tw.rc.victim.ID); n.Live() {
			t.Fatal("the victim was never killed")
		}
	}
	if twins[0].rc.refs.Load() != 0 || twins[1].rc.refs.Load() != 3*int64(len(reqs)-len(distinct)) {
		t.Errorf("sub-batches carried %d refs sent in full and %d sent with refs, want 0 and %d",
			twins[0].rc.refs.Load(), twins[1].rc.refs.Load(), 3*(len(reqs)-len(distinct)))
	}
}

// badRefFrames are batch-request frames whose refs no encoder writes, made
// of one full item's bytes and refs: to the item itself, to a later item,
// past the end, and to another ref.
func badRefFrames(item []byte) map[string][]byte {
	frames := map[string][]byte{}
	for what, layout := range map[string][]int{
		"a ref to itself":    {-1, 1},
		"a forward ref":      {1, -1},
		"a ref past the end": {-1, 7},
		"a ref to a ref":     {-1, 0, 1},
	} {
		var b bytes.Buffer
		eisvc.BeginBatchEvalRequest(&b, len(layout))
		for _, j := range layout {
			if j < 0 {
				b.Write(item)
			} else {
				b.Write(eisvc.AppendBatchRef(nil, j))
			}
		}
		frames[what] = b.Bytes()
	}
	return frames
}

// TestRelayKeepsContentLength: a routed single eval reaches the caller
// with the length its node declared, not re-framed as chunked. The answer
// is a thousand-point distribution, 16 KB: net/http measures a body of up
// to 2 KiB itself when its handler writes it at once, so a small one
// would pass either way.
func TestRelayKeepsContentLength(t *testing.T) {
	f := startFleet(t, Config{Nodes: 2})
	_, c := startTestRouter(t, f)
	digit := "choice { 0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1 }"
	wide := "interface wide {\n  ecv a: " + digit + "\n  ecv b: " + digit + "\n  ecv c: " + digit +
		"\n  func cost(n) { return n + a + 10 * b + 100 * c }\n}\n"
	if _, err := c.RegisterCtx(context.Background(), wide); err != nil {
		t.Fatal(err)
	}
	req := c.EvalRequestFor("wide", "cost", []core.Value{core.Num(3)}, core.Expected())
	var body bytes.Buffer
	if err := eisvc.EncodeEvalRequest(&body, &req); err != nil {
		t.Fatal(err)
	}
	eval := func(base string) *http.Response {
		hop := eisvc.Hop{ContentType: eisvc.BinaryContentType, Accept: eisvc.BinaryContentType}
		resp, err := hop.Send(context.Background(), http.DefaultTransport, http.MethodPost, base+eisvc.EvalEndpoint.Path, body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	routed := eval(c.Base())
	node := eval(mustNode(t, f, routed.Header.Get("X-Eisvc-Node")).URL)
	if node.ContentLength <= 2048 || routed.ContentLength != node.ContentLength || len(routed.TransferEncoding) != 0 {
		t.Errorf("node answered %d bytes; the router relayed %d, transfer encoding %v", node.ContentLength, routed.ContentLength, routed.TransferEncoding)
	}
}
