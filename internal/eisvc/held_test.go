package eisvc

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"energyclarity/internal/core"
)

// heldBatchRequests is walkBatchRequests with items 0 and 2 held, against
// the tags 3 and 5.
func heldBatchRequests() *BatchEvalRequest {
	r := walkBatchRequests()
	r.held = []uint64{3, 0, 5}
	return r
}

// heldBatchResults is walkBatchResults with item 0 answered held.
func heldBatchResults() *BatchEvalResponse {
	r := walkBatchResults()
	r.Results[0].held = true
	return r
}

// TestHeldItems: a held item is its prefix and then the item's own bytes,
// which the walker routes by; the decoder reads the tag back. A held
// answer item is the item with the held bit and no distribution, which a
// decoder that holds nothing leaves as it is.
func TestHeldItems(t *testing.T) {
	req := heldBatchRequests()
	frame := binaryFrame(&EvalBatchEndpoint.Request, req)
	plain := binaryFrame(&EvalBatchEndpoint.Request, walkBatchRequests())
	items, err := WalkBatchEvalRequest(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	plainItems, _ := WalkBatchEvalRequest(nil, plain)
	var stripped []byte
	for i, it := range items {
		if it.Held != (req.held[i] != 0) {
			t.Errorf("item %d walks as held %v", i, it.Held)
		}
		full := frame[it.Off:it.End]
		if it.Held {
			if !bytes.Equal(full[:HeldPrefixLen], AppendHeldPrefix(nil, req.held[i])) {
				t.Errorf("item %d's prefix is %x", i, full[:HeldPrefixLen])
			}
			full = full[HeldPrefixLen:]
		}
		stripped = append(stripped, full...)
		if p := plainItems[i]; string(it.Interface) != string(p.Interface) || it.Spread != p.Spread {
			t.Errorf("item %d routes as %q/%x held, %q/%x in full", i, it.Interface, it.Spread, p.Interface, p.Spread)
		}
	}
	if !bytes.Equal(stripped, plain[BatchHeaderLen:]) {
		t.Error("the held frame without its prefixes is not the frame in full")
	}
	dec, err := DecodeBatchEvalRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Requests, req.Requests) || !slices.Equal(dec.held, req.held) {
		t.Fatalf("decoded %+v held at %v", dec.Requests, dec.held)
	}
	if dec, _ := DecodeBatchEvalRequest(plain); dec.held != nil {
		t.Errorf("a frame without prefixes decodes held at %v", dec.held)
	}

	resp := heldBatchResults()
	got, err := DecodeBatchEvalResponse(binaryFrame(&EvalBatchEndpoint.Response, resp))
	if err != nil {
		t.Fatal(err)
	}
	if it := got.Results[0]; !it.held || it.Dist != nil || it.Status != http.StatusOK || !it.Cached {
		t.Errorf("a held answer item decodes to %+v", it)
	}
	if !bytes.Equal(binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: got.Results[1:]}),
		binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: walkBatchResults().Results[1:]})) {
		t.Error("the items after a held one decode otherwise")
	}
}

// heldTwin is a node and the loopback client of it that keeps answers.
type heldTwin struct {
	srv *Server
	c   *Client
}

func newHeldTwin(t *testing.T) heldTwin {
	srv := NewServer(Config{})
	for _, src := range []string{testEIL, altHW} {
		if _, err := srv.Registry().RegisterSource(src); err != nil {
			t.Fatal(err)
		}
	}
	c := NewClient("http://loopback")
	c.SetTransport(NewLoopbackTransport(srv))
	return heldTwin{srv, c}
}

// TestHeldAnswers: a client holds the 200s that came back without an
// evaluation and sends their items held. The node answers them without
// their vectors while its answer stands, and the client decodes them to
// the *WireDist it holds, the same pointer on every call: the same items,
// with the same statuses and flags, as a client holding nothing gets from
// a twin node. After a rebind the held items come back in full at the new
// version, and what comes back replaces what was held.
func TestHeldAnswers(t *testing.T) {
	held, twin := newHeldTwin(t), newHeldTwin(t)
	reqs := make([]EvalRequest, 12) // 4 distinct items, 3 times each, and a refusal
	for i := range reqs {
		arg := core.Record(map[string]core.Value{"pixels": core.Num(float64(1024 + i%4)), "zeros": core.Num(0)})
		reqs[i] = held.c.EvalRequestFor("ml_webservice", "handle", []core.Value{arg}, core.Expected())
	}
	reqs = append(reqs, EvalRequest{Interface: "missing", Method: "m", Mode: "expected"})
	send := func(phase string, wantHeld uint64, wantVersion uint64) []BatchEvalItem {
		t.Helper()
		before := held.c.Counters().Held
		got, err := held.c.EvalBatchCtx(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		fresh := NewClient("http://twin") // holds nothing
		fresh.SetTransport(NewLoopbackTransport(twin.srv))
		want, err := fresh.EvalBatchCtx(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if n := held.c.Counters().Held - before; n != wantHeld {
			t.Errorf("%s: %d answers came back held, want %d", phase, n, wantHeld)
		}
		for i := range got {
			if !bytes.Equal(binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: got[i : i+1]}),
				binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: want[i : i+1]})) {
				t.Errorf("%s: item %d is %+v, a client holding nothing gets %+v", phase, i, got[i], want[i])
			}
			if got[i].Status == http.StatusOK && got[i].Version != wantVersion {
				t.Errorf("%s: item %d at version %d, want %d", phase, i, got[i].Version, wantVersion)
			}
		}
		return got
	}
	_, v1, _ := held.srv.Registry().Get("ml_webservice")
	send("cold", 0, v1)
	send("warm", 0, v1) // every answer a memo hit: now held
	first, again := send("held", 4, v1), send("held again", 4, v1)
	for i := range first {
		if first[i].Dist != again[i].Dist {
			t.Errorf("held item %d is another Dist on the next call", i)
		}
	}
	var v2 uint64
	for _, tw := range []heldTwin{held, twin} {
		var err error
		if v2, err = tw.c.RebindCtx(context.Background(), "ml_webservice", "accel", "accel_hw_v2"); err != nil {
			t.Fatal(err)
		}
	}
	send("rebound", 0, v2) // evaluated at v2, and held from now on
	send("held at the new version", 4, v2)
}

// TestHeldAcrossRestart: a node restarted without its snapshot counts
// versions anew, so a changed source registered in the same order gets the
// version the old one had. A client holding the old answers must get the
// new distributions in full, and then hold those.
func TestHeldAcrossRestart(t *testing.T) {
	tw := newHeldTwin(t)
	reqs := make([]EvalRequest, 4)
	for i := range reqs {
		arg := core.Record(map[string]core.Value{"pixels": core.Num(float64(1024 + i)), "zeros": core.Num(0)})
		reqs[i] = tw.c.EvalRequestFor("ml_webservice", "handle", []core.Value{arg}, core.Expected())
	}
	send := func(phase string, wantHeld uint64) []BatchEvalItem {
		t.Helper()
		before := tw.c.Counters().Held
		got, err := tw.c.EvalBatchCtx(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		if n := tw.c.Counters().Held - before; n != wantHeld {
			t.Errorf("%s: %d answers came back held, want %d", phase, n, wantHeld)
		}
		return got
	}
	send("cold", 0)
	old := send("warm", 0) // now held
	send("held", 4)

	restarted := NewServer(Config{})
	for _, src := range []string{strings.Replace(testEIL, "0.004mJ", "0.005mJ", 1), altHW} {
		if _, err := restarted.Registry().RegisterSource(src); err != nil {
			t.Fatal(err)
		}
	}
	_, was, _ := tw.srv.Registry().Get("ml_webservice")
	if _, v, _ := restarted.Registry().Get("ml_webservice"); v != was {
		t.Fatalf("the restarted node is at version %d, want the old %d", v, was)
	}
	tw.c.SetTransport(NewLoopbackTransport(restarted))
	fresh := NewClient("http://restarted")
	fresh.SetTransport(NewLoopbackTransport(restarted))
	for _, phase := range []struct {
		name string
		held uint64
	}{{"after the restart", 0}, {"held again", 4}} {
		want, err := fresh.EvalBatchCtx(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		got := send(phase.name, phase.held)
		for i := range got {
			if !sameWire(got[i].Dist, want[i].Dist) || sameWire(got[i].Dist, old[i].Dist) {
				t.Errorf("%s: item %d is %+v, the restarted node answers %+v", phase.name, i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// TestNodeAnswersHeldOnlyItsOwnAnswer: a node answers a held item held
// only when its answer is a 200 whose distribution has the tag the item
// names and the caller reads binary; to anything else — another answer's
// tag, a refusal, a JSON Accept — it sends the item in full, as to a
// request without prefixes.
func TestNodeAnswersHeldOnlyItsOwnAnswer(t *testing.T) {
	tw := newHeldTwin(t)
	reqs := []EvalRequest{
		tw.c.EvalRequestFor("ml_webservice", "handle", []core.Value{reqArg()}, core.Expected()),
		tw.c.EvalRequestFor("ml_webservice", "handle", []core.Value{reqArg()}, core.WorstCase()),
		{Interface: "missing", Method: "m", Mode: "expected"},
	}
	post := func(req *BatchEvalRequest, accept string) *BatchEvalResponse {
		r := httptest.NewRequest(http.MethodPost, EvalBatchEndpoint.Path, bytes.NewReader(binaryFrame(&EvalBatchEndpoint.Request, req)))
		r.Header.Set("Content-Type", BinaryContentType)
		r.Header.Set("Accept", accept)
		resp, _ := NewLoopbackTransport(tw.srv).RoundTrip(r)
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		got, err := EvalBatchEndpoint.Response.Decode(resp.Header.Get("Content-Type"), body.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	post(&BatchEvalRequest{Requests: reqs}, BinaryContentType) // warm: every answer below is a memo hit
	full := post(&BatchEvalRequest{Requests: reqs}, BinaryContentType)
	tag := DistTag(full.Results[0].Dist) // item 1, the worst case, has another
	heldReq := &BatchEvalRequest{Requests: reqs, held: []uint64{tag, tag, tag}}
	got := post(heldReq, BinaryContentType)
	if it := got.Results[0]; !it.held || it.Dist != nil {
		t.Errorf("the item held against its own answer came back %+v", it)
	}
	want := slices.Clone(full.Results)
	want[0].held, want[0].Dist = true, nil
	if !bytes.Equal(binaryFrame(&EvalBatchEndpoint.Response, got), binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: want})) {
		t.Errorf("held answers %+v, want %+v", got.Results, want)
	}
	if js := post(heldReq, jsonContentType); !bytes.Equal(binaryFrame(&EvalBatchEndpoint.Response, js), binaryFrame(&EvalBatchEndpoint.Response, full)) {
		t.Errorf("to a JSON Accept the held request was answered %+v, want %+v", js.Results, full.Results)
	}
}

// badHeldFrames are batch-request frames with held prefixes no encoder
// writes, around one full item's bytes.
func badHeldFrames(item []byte) map[string][]byte {
	frame := func(n int, parts ...[]byte) []byte {
		var b bytes.Buffer
		BeginBatchEvalRequest(&b, n)
		for _, p := range parts {
			b.Write(p)
		}
		return b.Bytes()
	}
	prefix := AppendHeldPrefix(nil, 1)
	return map[string][]byte{
		"a truncated tag":         frame(2, item, prefix[:HeldPrefixLen-3]),
		"a held prefix on a ref":  frame(2, item, prefix, AppendBatchRef(nil, 0)),
		"two prefixes":            frame(1, prefix, prefix, item),
		"a prefix naming tag 0":   frame(1, AppendHeldPrefix(nil, 0), item),
		"a prefix and no item":    frame(1, prefix),
		"a prefix on a ref alone": frame(1, prefix, AppendBatchRef(nil, 0)),
	}
}

// TestBadHeldRefused: a malformed held prefix fails the decoder and the
// walker, and a node answers a request carrying one with a 400 of its own.
// An answer frame carries no prefix, and its held bit goes on a 200 without
// a distribution only; and a held bit on an item the client did not send
// held fails the client's batch call, like a bad ref.
func TestBadHeldRefused(t *testing.T) {
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	reqItem := oneItem(binaryFrame(&EvalBatchEndpoint.Request, &BatchEvalRequest{Requests: []EvalRequest{
		NewClient("").EvalRequestFor("ml_webservice", "handle", []core.Value{reqArg()}, core.Expected())}}))
	for what, frame := range badHeldFrames(reqItem) {
		if _, err := DecodeBatchEvalRequest(frame); err == nil {
			t.Errorf("request with %s decodes", what)
		}
		if _, err := WalkBatchEvalRequest(nil, frame); err == nil {
			t.Errorf("request with %s walks", what)
		}
		r := httptest.NewRequest(http.MethodPost, EvalBatchEndpoint.Path, bytes.NewReader(frame))
		r.Header.Set("Content-Type", BinaryContentType)
		if resp, _ := NewLoopbackTransport(srv).RoundTrip(r); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request with %s: node answered %d, want 400", what, resp.StatusCode)
		}
	}

	w := WireDist{Support: []float64{1}, Probs: []float64{1}, Mean: 1}
	ok := BatchEvalItem{Interface: "s", Version: 1, Method: "m", Status: http.StatusOK, Dist: &w}
	one := func(it BatchEvalItem) []byte {
		return binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: []BatchEvalItem{it}})
	}
	// flagged is it's frame with the held bit set in the flags byte: the
	// byte that Cached changes.
	flagged := func(it BatchEvalItem) []byte {
		frame := one(it)
		it.Cached = !it.Cached
		other, at := one(it), 0
		for frame[at] == other[at] {
			at++
		}
		frame[at] |= 1 << 5
		return frame
	}
	refused := ok
	refused.Status, refused.Error, refused.Dist = http.StatusNotFound, "no interface", nil
	var prefixed bytes.Buffer
	BeginBatchEvalResponse(&prefixed, 1)
	prefixed.Write(AppendHeldPrefix(nil, 1))
	prefixed.Write(oneItem(one(ok)))
	for what, frame := range map[string][]byte{
		"a held prefix":           prefixed.Bytes(),
		"a held bit and a dist":   flagged(ok),
		"a held bit on a refusal": flagged(refused),
	} {
		if _, err := DecodeBatchEvalResponse(frame); err == nil {
			t.Errorf("answer with %s decodes", what)
		}
		if _, err := WalkBatchEvalResponse(nil, frame); err == nil {
			t.Errorf("answer with %s walks", what)
		}
	}

	heldOK := ok
	heldOK.held = true
	frame := one(heldOK)
	if _, err := DecodeBatchEvalResponse(frame); err != nil {
		t.Fatalf("a held answer does not decode: %v", err)
	}
	c := NewClient("http://daemon")
	c.SetTransport(NewLoopbackTransport(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", BinaryContentType)
		_, _ = rw.Write(frame)
	})))
	if items, err := c.EvalBatchCtx(context.Background(), []EvalRequest{{Interface: "s", Method: "m", Mode: "expected"}}); err == nil {
		t.Errorf("a held answer to an item sent in full: %+v, no error", items)
	}
	if n := c.Counters().Held; n != 0 {
		t.Errorf("%d answers counted held", n)
	}
}

// TestMemoEntriesCarryTheirTag: a memo entry's wire form carries the
// DistTag of itself from the moment the entry is made, however it came to
// be: evaluated, installed from a peer's answer, or restored from a
// snapshot. A node checks held prefixes against that tag.
func TestMemoEntriesCarryTheirTag(t *testing.T) {
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	_, version, _ := srv.Registry().Get("ml_webservice")
	c := NewClient("http://loopback")
	c.SetTransport(NewLoopbackTransport(srv))
	args := []core.Value{reqArg()}
	if _, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, core.Expected()); err != nil {
		t.Fatal(err)
	}
	d := wideDist(t)
	srv.probePeers(context.Background(), time.Time{}, func(context.Context, time.Time, []string) []PeerAnswer {
		return []PeerAnswer{{Dist: d, Found: true}}
	}, []string{"peer"})
	srv.memo.Restore([]MemoEntry{{Key: "snapshot", Support: d.Support(), Probs: d.Probs()}})

	for kind, key := range map[string]string{
		"evaluated": memoKey("ml_webservice", version, "handle", args, core.Expected()),
		"peer":      "peer",
		"restored":  "snapshot",
	} {
		w := wireOf(srv.memo, key)
		if w == nil {
			t.Fatalf("%s: no memo entry", kind)
		}
		if want := DistTag(w); w.tag != want {
			t.Errorf("%s entry: tag %x, DistTag of its wire form %x", kind, w.tag, want)
		}
	}
}

// poolScribbler overwrites every buffer it can take from the codec's pool
// once it has forwarded a request: what the pool's other users may do to a
// buffer while the request is in flight.
type poolScribbler struct{ next http.RoundTripper }

func (p poolScribbler) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := p.next.RoundTrip(r)
	var taken []*bytes.Buffer
	for range 8 {
		b := GetBuffer()
		b.Write(bytes.Repeat([]byte{0xff}, 1<<16))
		taken = append(taken, b)
	}
	for _, b := range taken {
		PutBuffer(b)
	}
	return resp, err
}

// TestHeldSurvivesPoolReuse: the client encodes a batch into a pooled
// buffer and sends a copy; what its holds keep of the items it sent is
// read from that copy, so a pooled buffer reused while the batch is in
// flight changes nothing: the second send of a warm batch comes back held.
func TestHeldSurvivesPoolReuse(t *testing.T) {
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	c := NewClient("http://loopback")
	c.SetTransport(poolScribbler{NewLoopbackTransport(srv)})
	reqs := make([]EvalRequest, 8)
	for i := range reqs {
		arg := core.Record(map[string]core.Value{"pixels": core.Num(float64(2048 + i)), "zeros": core.Num(0)})
		reqs[i] = c.EvalRequestFor("ml_webservice", "handle", []core.Value{arg}, core.Expected())
	}
	for range 3 { // cold, warm (the answers are held), held
		if _, err := c.EvalBatchCtx(context.Background(), reqs); err != nil {
			t.Fatal(err)
		}
	}
	if held := c.Counters().Held; held != uint64(len(reqs)) {
		t.Errorf("%d answers came back held, want %d", held, len(reqs))
	}
}
