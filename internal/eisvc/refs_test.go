package eisvc

import (
	"bytes"
	"context"
	"encoding/binary"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"testing"

	"energyclarity/internal/core"
)

// refBatchRequests is walkBatchRequests with items 0 and 2 asked again:
// the encoder sends items 3 and 5 as refs to item 0, and item 4 as one to
// item 2.
func refBatchRequests() *BatchEvalRequest {
	r := walkBatchRequests()
	r.Requests = append(r.Requests, r.Requests[0], r.Requests[2], r.Requests[0])
	return r
}

// refBatchResults is an answer with refs, as a node gives one to a request
// that carried refs: items 3 and 5 repeat item 0, and item 4, a second
// refusal, is in full.
func refBatchResults() *BatchEvalResponse {
	r := walkBatchResults()
	r.Results = append(r.Results, r.Results[0], r.Results[1], r.Results[0])
	r.refs = []int{0, 1, 2, 0, 4, 0}
	return r
}

// frameRefs walks frame and says what each item is: 0 for a full item,
// 1 + the index of the item a ref repeats.
func frameRefs(t *testing.T, walk func([]FrameItem, []byte) ([]FrameItem, error), frame []byte) []int {
	t.Helper()
	items, err := walk(nil, frame)
	if err != nil {
		t.Fatal(err)
	}
	refs := make([]int, len(items))
	for i, it := range items {
		refs[i] = it.Ref
		if it.Ref > 0 && it.End-it.Off != refSize {
			t.Fatalf("ref item %d spans %d bytes, want %d", i, it.End-it.Off, refSize)
		}
	}
	return refs
}

// TestBatchRefs: an item that encodes to an earlier item's bytes goes as
// an 8-byte ref to it, and the decoder and the walker read a ref back as
// that item: a request as a copy sharing its arguments, an answer as a
// copy flagged Deduped sharing its Dist. A frame without refs is every
// item in full, as an old client sends and an old client is answered.
func TestBatchRefs(t *testing.T) {
	req := refBatchRequests()
	frame := binaryFrame(&EvalBatchEndpoint.Request, req)
	if got, want := frameRefs(t, WalkBatchEvalRequest, frame), []int{0, 0, 0, 1, 3, 1}; !slices.Equal(got, want) {
		t.Fatalf("request items walk as refs %v, want %v", got, want)
	}
	dec, err := DecodeBatchEvalRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec.Requests, req.Requests) || !slices.Equal(dec.refs, []int{0, 1, 2, 0, 2, 0}) {
		t.Fatalf("decoded %+v with refs %v", dec.Requests, dec.refs)
	}
	if &dec.Requests[3].Args[0] != &dec.Requests[0].Args[0] {
		t.Error("a ref's arguments are a copy, not its item's")
	}
	if plain, err := DecodeBatchEvalRequest(binaryFrame(&EvalBatchEndpoint.Request, walkBatchRequests())); err != nil || plain.refs != nil {
		t.Errorf("a frame without refs decodes with refs %v, err %v", plain.refs, err)
	}

	resp := refBatchResults()
	frame = binaryFrame(&EvalBatchEndpoint.Response, resp)
	if got, want := frameRefs(t, WalkBatchEvalResponse, frame), []int{0, 0, 0, 1, 0, 1}; !slices.Equal(got, want) {
		t.Fatalf("answer items walk as refs %v, want %v", got, want)
	}
	got, err := DecodeBatchEvalResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range resp.refs {
		want := resp.Results[j]
		if i != j {
			want.Deduped = true
			if got.Results[i].Dist != got.Results[j].Dist {
				t.Errorf("answer %d does not share item %d's Dist", i, j)
			}
		}
		if !bytes.Equal(binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: got.Results[i : i+1]}),
			binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: []BatchEvalItem{want}})) {
			t.Errorf("answer %d decodes to %+v, want %+v", i, got.Results[i], want)
		}
	}
	resp.refs = nil
	if got := frameRefs(t, WalkBatchEvalResponse, binaryFrame(&EvalBatchEndpoint.Response, resp)); slices.Max(got) != 0 {
		t.Errorf("an answer without refs walks as refs %v", got)
	}
}

// badRefFrames are batch frames whose refs no encoder writes — to the item
// itself, to a later item, past the end, to another ref — made of begin's
// head, one full item's bytes where a layout says -1, and refs.
func badRefFrames(begin func(*bytes.Buffer, int), item []byte) map[string][]byte {
	frames := map[string][]byte{}
	for what, layout := range map[string][]int{
		"a ref to itself":    {-1, 1},
		"a forward ref":      {1, -1},
		"a ref past the end": {-1, 7},
		"a ref to a ref":     {-1, 0, 1},
	} {
		var b bytes.Buffer
		begin(&b, len(layout))
		for _, j := range layout {
			if j < 0 {
				b.Write(item)
			} else {
				b.Write(AppendBatchRef(nil, j))
			}
		}
		frames[what] = b.Bytes()
	}
	return frames
}

// oneItem is the bytes of the one item of frame's batch.
func oneItem(frame []byte) []byte { return frame[BatchHeaderLen:] }

// TestBadRefsRefused: a malformed ref fails the decoder and the walker of
// either kind of frame, and a node answers a request carrying one with a
// 400 of its own.
func TestBadRefsRefused(t *testing.T) {
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	reqItem := oneItem(binaryFrame(&EvalBatchEndpoint.Request, &BatchEvalRequest{Requests: []EvalRequest{
		NewClient("").EvalRequestFor("ml_webservice", "handle", []core.Value{reqArg()}, core.Expected())}}))
	for what, frame := range badRefFrames(BeginBatchEvalRequest, reqItem) {
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
	answerItem := oneItem(binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: walkBatchResults().Results[:1]}))
	for what, frame := range badRefFrames(BeginBatchEvalResponse, answerItem) {
		if _, err := DecodeBatchEvalResponse(frame); err == nil {
			t.Errorf("answer with %s decodes", what)
		}
		if _, err := WalkBatchEvalResponse(nil, frame); err == nil {
			t.Errorf("answer with %s walks", what)
		}
	}
}

// TestMalformedAnswerIsClientError: a daemon whose answer carries a bad
// ref fails the client's batch call with an error — never a panic, never
// an item a caller could read as answered without a distribution.
func TestMalformedAnswerIsClientError(t *testing.T) {
	w := WireDist{Support: []float64{1}, Probs: []float64{1}, Mean: 1}
	answers := badRefFrames(BeginBatchEvalResponse, oneItem(binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{
		Results: []BatchEvalItem{{Interface: "s", Method: "m", Status: http.StatusOK, Dist: &w}}})))
	for what, frame := range answers {
		c := NewClient("http://daemon")
		c.SetTransport(NewLoopbackTransport(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
			rw.Header().Set("Content-Type", BinaryContentType)
			_, _ = rw.Write(frame)
		})))
		reqs := make([]EvalRequest, binary.LittleEndian.Uint32(frame[BatchHeaderLen-4:])) // as many as answered
		for i := range reqs {
			reqs[i] = EvalRequest{Interface: "s", Method: "m", Mode: "expected", Seed: int64(i)}
		}
		if items, err := c.EvalBatchCtx(context.Background(), reqs); err == nil {
			t.Errorf("answer with %s: %d items, no error", what, len(items))
		}
	}
}

// TestNodeAnswersRefsOnlyToRefs: a node answers a batch sent without refs
// in full, as it always has, and the same batch sent with refs with a ref
// for every item that an earlier item's evaluation answers — an item sent
// in full that only its run knobs tell apart included, a refused repeat
// not. Both answers decode to the same items, and the ledger counts every
// answered item either way.
func TestNodeAnswersRefsOnlyToRefs(t *testing.T) {
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	arg := func(i int) []core.Value {
		return []core.Value{core.Record(map[string]core.Value{"pixels": core.Num(float64(1024 + i)), "zeros": core.Num(0)})}
	}
	c := NewClient("")
	var reqs []EvalRequest
	for i := 0; i < 9; i++ {
		reqs = append(reqs, c.EvalRequestFor("ml_webservice", "handle", arg(i%3), core.Expected()))
	}
	knobs := reqs[1]
	knobs.Parallelism = 1
	missing := EvalRequest{Interface: "missing", Method: "m", Mode: "expected"}
	reqs = append(reqs, knobs, missing, missing)
	post := func(frame []byte, accept string) []byte {
		r := httptest.NewRequest(http.MethodPost, EvalBatchEndpoint.Path, bytes.NewReader(frame))
		r.Header.Set("Content-Type", BinaryContentType)
		r.Header.Set("Accept", accept)
		r.Header.Set(headerClient, "refs")
		resp, _ := NewLoopbackTransport(srv).RoundTrip(r)
		var body bytes.Buffer
		_, _ = body.ReadFrom(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node answered %d: %s", resp.StatusCode, body.Bytes())
		}
		return body.Bytes()
	}
	var full bytes.Buffer // every item in full: the frame of a client that sends no refs
	BeginBatchEvalRequest(&full, len(reqs))
	for i := range reqs {
		full.Write(binaryFrame(&EvalEndpoint.Request, &reqs[i])[len(binMagic)+1:])
	}
	withRefs := binaryFrame(&EvalBatchEndpoint.Request, &BatchEvalRequest{Requests: reqs})
	if frameRefs(t, WalkBatchEvalRequest, full.Bytes())[11] != 0 || frameRefs(t, WalkBatchEvalRequest, withRefs)[11] != 11 {
		t.Fatal("the two request frames are not one without refs and one with")
	}
	post(full.Bytes(), BinaryContentType) // warm: the answers below are all memo hits

	plain, refd := post(full.Bytes(), BinaryContentType), post(withRefs, BinaryContentType)
	if got := frameRefs(t, WalkBatchEvalResponse, plain); slices.Max(got) != 0 {
		t.Errorf("a request without refs was answered with refs %v", got)
	}
	if got, want := frameRefs(t, WalkBatchEvalResponse, refd), []int{0, 0, 0, 1, 2, 3, 1, 2, 3, 2, 0, 0}; !slices.Equal(got, want) {
		t.Errorf("a request with refs was answered with refs %v, want %v", got, want)
	}
	a, errA := DecodeBatchEvalResponse(plain)
	b, errB := DecodeBatchEvalResponse(refd)
	// JSON carries no refs: the answer to the request with refs is every
	// item in full.
	j, errJ := EvalBatchEndpoint.Response.Decode(jsonContentType, post(withRefs, jsonContentType))
	if errA != nil || errB != nil || errJ != nil {
		t.Fatal(errA, errB, errJ)
	}
	for _, got := range []*BatchEvalResponse{b, j} {
		if !bytes.Equal(binaryFrame(&EvalBatchEndpoint.Response, a), binaryFrame(&EvalBatchEndpoint.Response, got)) {
			t.Errorf("the answers differ:\n without refs %+v\n with refs    %+v", a.Results, got.Results)
		}
	}
	if clients, _ := srv.ledger.Snapshot(); clients["refs"].Requests != 4*10 {
		t.Errorf("the ledger counted %d answered items, want %d", clients["refs"].Requests, 4*10)
	}
}
