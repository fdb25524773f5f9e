package eisvc

import (
	"bytes"
	"math"
	"net/http"
	"testing"

	"energyclarity/internal/core"
)

// walkBatchRequests is a three-item batch with everything an item can
// carry: nested args, pinned ECVs, an empty item.
func walkBatchRequests() *BatchEvalRequest {
	other := *testEvalRequest()
	other.Interface, other.Seed = "storage", 99
	return &BatchEvalRequest{Requests: []EvalRequest{*testEvalRequest(), {}, other}}
}

func walkBatchResults() *BatchEvalResponse {
	w := WireDist{Support: oddFloats, Probs: oddFloats, Mean: math.NaN()}
	return &BatchEvalResponse{Results: []BatchEvalItem{
		{Interface: "mlservice", Version: 3, Method: "handle_request", Mode: "expected", Status: 200, Dist: &w, Cached: true},
		{Interface: "storage", Method: "put", Status: 404, Error: `no interface "storage"`},
		{Interface: "mlservice", Version: 3, Method: "handle_request", Mode: "expected", Status: 200, Dist: &w, Deduped: true},
	}}
}

// mustEncode returns the frame enc writes.
func mustEncode(t testing.TB, enc func(*bytes.Buffer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := enc(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// tiles checks that the walked ranges cover frame exactly, in order, after
// the batch head.
func tiles(t *testing.T, what string, frame []byte, items []FrameItem) {
	t.Helper()
	at := BatchHeaderLen
	for i, it := range items {
		if it.Off != at || it.End <= it.Off {
			t.Fatalf("%s: item %d spans [%d,%d), want it to start at %d", what, i, it.Off, it.End, at)
		}
		at = it.End
	}
	if at != len(frame) {
		t.Fatalf("%s: the items end at byte %d of %d", what, at, len(frame))
	}
}

// spliced is the batch frame of the chosen items of a walked frame: a
// fresh head and the items' own bytes.
func spliced(begin func(*bytes.Buffer, int), frame []byte, items []FrameItem, pick []int) []byte {
	var buf bytes.Buffer
	begin(&buf, len(pick))
	for _, i := range pick {
		buf.Write(frame[items[i].Off:items[i].End])
	}
	return buf.Bytes()
}

// subsets of n items a splice must survive: all, none of the odd ones,
// and everything backwards (a stitch reorders).
func subsets(n int) [][]int {
	var all, even, reversed []int
	for i := 0; i < n; i++ {
		all = append(all, i)
		if i%2 == 0 {
			even = append(even, i)
		}
		reversed = append(reversed, n-1-i)
	}
	return [][]int{all, even, reversed}
}

// checkRequestWalk holds a walked batch-request frame to the decoded one.
func checkRequestWalk(t *testing.T, frame []byte, items []FrameItem, dec *BatchEvalRequest) {
	t.Helper()
	if len(items) != len(dec.Requests) {
		t.Fatalf("walker saw %d items, decoder %d", len(items), len(dec.Requests))
	}
	tiles(t, "batch request", frame, items)
	for i := range items {
		req := &dec.Requests[i]
		if string(items[i].Interface) != req.Interface {
			t.Fatalf("item %d: walker read interface %q, decoder %q", i, items[i].Interface, req.Interface)
		}
		// No cross-item state: the item's bytes under a single-request head
		// are that request's frame, and fingerprint as they did in the batch
		// — a request goes to the same replica alone or batched.
		raw := frame[items[i].Off:items[i].End]
		alone := append(append(append([]byte{}, binMagic[:]...), kindEvalRequest), raw...)
		single, err := WalkEvalRequest(alone)
		if err != nil {
			t.Fatalf("item %d: its bytes do not walk as a single frame: %v", i, err)
		}
		if string(single.Interface) != req.Interface || single.Off != len(binMagic)+1 || single.End != len(alone) {
			t.Fatalf("item %d: single-frame walk read %q over [%d,%d) of %d bytes", i, single.Interface, single.Off, single.End, len(alone))
		}
		if single.Spread != items[i].Spread {
			t.Fatalf("item %d: fingerprint %x inside the batch, %x alone", i, items[i].Spread, single.Spread)
		}
		// The fingerprint reads the fields the memo key reads: the knobs
		// that only say how to run an evaluation do not move it, the seed
		// does. (Compared on canonical re-encodings; a frame with unsorted
		// or repeated record keys may fingerprint otherwise — placement
		// only.)
		spread := func(r *EvalRequest) uint64 {
			it, err := WalkEvalRequest(mustEncode(t, func(b *bytes.Buffer) error { return EncodeEvalRequest(b, r) }))
			if err != nil {
				t.Fatalf("item %d: canonical re-encoding does not walk: %v", i, err)
			}
			return it.Spread
		}
		knobs, seed := *req, *req
		knobs.Samples, knobs.EnumLimit, knobs.Parallelism, knobs.DeadlineMs = req.Samples+1, req.EnumLimit+1, req.Parallelism+1, req.DeadlineMs+1
		seed.Seed++
		if base := spread(req); spread(&knobs) != base || spread(&seed) == base {
			t.Fatalf("item %d: fingerprint %x, %x with other run knobs, %x with another seed", i, base, spread(&knobs), spread(&seed))
		}
		var refusal bytes.Buffer
		BeginBatchEvalResponse(&refusal, 1)
		AppendBatchEvalError(&refusal, frame[items[i].Off:items[i].End], http.StatusServiceUnavailable, "down")
		got, err := DecodeBatchEvalResponse(refusal.Bytes())
		if err != nil || len(got.Results) != 1 {
			t.Fatalf("item %d: refusal does not decode: %v", i, err)
		}
		if r := got.Results[0]; r.Interface != req.Interface || r.Method != req.Method || r.Status != http.StatusServiceUnavailable || r.Error != "down" || r.Dist != nil {
			t.Fatalf("item %d: refusal decodes to %+v", i, r)
		}
	}
	for _, pick := range subsets(len(items)) {
		got, err := DecodeBatchEvalRequest(spliced(BeginBatchEvalRequest, frame, items, pick))
		if err != nil {
			t.Fatalf("splice of items %v does not decode: %v", pick, err)
		}
		want := &BatchEvalRequest{}
		for _, i := range pick {
			want.Requests = append(want.Requests, dec.Requests[i])
		}
		if !bytes.Equal(
			mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, got) }),
			mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, want) })) {
			t.Fatalf("splice of items %v decodes to other requests", pick)
		}
	}
}

func checkResponseWalk(t *testing.T, frame []byte, items []FrameItem, dec *BatchEvalResponse) {
	t.Helper()
	if len(items) != len(dec.Results) {
		t.Fatalf("walker saw %d answer items, decoder %d", len(items), len(dec.Results))
	}
	tiles(t, "batch response", frame, items)
	for i := range items {
		if string(items[i].Interface) != dec.Results[i].Interface {
			t.Fatalf("answer %d: walker read interface %q, decoder %q", i, items[i].Interface, dec.Results[i].Interface)
		}
	}
	for _, pick := range subsets(len(items)) {
		got, err := DecodeBatchEvalResponse(spliced(BeginBatchEvalResponse, frame, items, pick))
		if err != nil {
			t.Fatalf("stitch of answers %v does not decode: %v", pick, err)
		}
		want := &BatchEvalResponse{}
		for _, i := range pick {
			want.Results = append(want.Results, dec.Results[i])
		}
		if !bytes.Equal(
			mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, got) }),
			mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, want) })) {
			t.Fatalf("stitch of answers %v decodes to other items", pick)
		}
	}
}

// FuzzFrameWalk holds the walkers to the decoders: on arbitrary bytes each
// walker accepts exactly what the matching Decode function accepts, and on
// an accepted frame it reports the same items the decoder builds — ranges
// that tile the frame and survive being spliced under a fresh head, the
// same interface names, a fingerprint that does not depend on where the
// item sits. The walker is what lets the router forward frames it never
// decodes, so a frame it mis-measures would be a corrupted sub-batch.
func FuzzFrameWalk(f *testing.F) {
	addCodecSeeds(f)
	for _, enc := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, walkBatchRequests()) },
		func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, walkBatchResults()) },
		func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, &BatchEvalRequest{}) },
		func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, &BatchEvalResponse{}) },
	} {
		f.Add(mustEncode(f, enc))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, decErr := DecodeEvalRequest(data)
		it, walkErr := WalkEvalRequest(data)
		if (decErr == nil) != (walkErr == nil) {
			t.Fatalf("eval request: decoder says %v, walker says %v", decErr, walkErr)
		}
		if decErr == nil {
			// One item under a batch head is the one-item batch.
			batch := spliced(BeginBatchEvalRequest, data, []FrameItem{it}, []int{0})
			items, err := WalkBatchEvalRequest(batch)
			if err != nil {
				t.Fatalf("eval request under a batch head does not walk: %v", err)
			}
			checkRequestWalk(t, batch, items, &BatchEvalRequest{Requests: []EvalRequest{*req}})
		}

		breq, decErr := DecodeBatchEvalRequest(data)
		items, walkErr := WalkBatchEvalRequest(data)
		if (decErr == nil) != (walkErr == nil) {
			t.Fatalf("batch request: decoder says %v, walker says %v", decErr, walkErr)
		}
		if decErr == nil {
			checkRequestWalk(t, data, items, breq)
		}

		bresp, decErr := DecodeBatchEvalResponse(data)
		items, walkErr = WalkBatchEvalResponse(data)
		if (decErr == nil) != (walkErr == nil) {
			t.Fatalf("batch response: decoder says %v, walker says %v", decErr, walkErr)
		}
		if decErr == nil {
			checkResponseWalk(t, data, items, bresp)
		}
	})
}

// TestFrameWalkTruncation cuts well-formed frames at every byte: the
// walker must refuse each prefix, as the decoder does, and never read past
// the end.
func TestFrameWalkTruncation(t *testing.T) {
	reqFrame := mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, walkBatchRequests()) })
	respFrame := mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, walkBatchResults()) })
	for n := 0; n < len(reqFrame); n++ {
		if _, err := WalkBatchEvalRequest(reqFrame[:n:n]); err == nil {
			t.Fatalf("request frame cut to %d/%d bytes walked without error", n, len(reqFrame))
		}
	}
	for n := 0; n < len(respFrame); n++ {
		if _, err := WalkBatchEvalResponse(respFrame[:n:n]); err == nil {
			t.Fatalf("answer frame cut to %d/%d bytes walked without error", n, len(respFrame))
		}
	}
	for _, bad := range [][]byte{
		append(append([]byte{}, reqFrame...), 0), // trailing byte
		respFrame,                                // the other kind
	} {
		if _, err := WalkBatchEvalRequest(bad); err == nil {
			t.Fatal("malformed request frame walked without error")
		}
	}
	// A count the frame cannot hold is refused before anything is sized by it.
	huge := mustEncode(t, func(b *bytes.Buffer) error { BeginBatchEvalRequest(b, math.MaxUint32); return nil })
	if _, err := WalkBatchEvalRequest(huge); err == nil {
		t.Fatal("a 4-billion-item count over an empty frame walked without error")
	}
	// Nesting is bounded where the decoder bounds it.
	deep := &EvalRequest{Interface: "s", Method: "m"}
	v := core.Num(1)
	for i := 0; i <= maxValueDepth+1; i++ {
		v = core.List(v)
	}
	deep.Args = Args{v}
	frame := mustEncode(t, func(b *bytes.Buffer) error { return EncodeEvalRequest(b, deep) })
	_, decErr := DecodeEvalRequest(frame)
	_, walkErr := WalkEvalRequest(frame)
	if decErr == nil || walkErr == nil {
		t.Fatalf("nesting past %d: decoder says %v, walker says %v", maxValueDepth, decErr, walkErr)
	}
}

// TestFrameWalkMatchesDecoder is FuzzFrameWalk's property on the fixtures,
// for runs that do not fuzz, plus the JSON edge: a request that arrives as
// JSON is framed canonically and fingerprints like the binary caller's.
func TestFrameWalkMatchesDecoder(t *testing.T) {
	breq := walkBatchRequests()
	frame := mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, breq) })
	items, err := WalkBatchEvalRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBatchEvalRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	checkRequestWalk(t, frame, items, dec)
	if items[0].Spread == items[2].Spread {
		t.Error("requests differing in seed share a fingerprint")
	}

	bresp := walkBatchResults()
	frame = mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, bresp) })
	answers, err := WalkBatchEvalResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	decResp, err := DecodeBatchEvalResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	checkResponseWalk(t, frame, answers, decResp)

	var jsonBody, scratch bytes.Buffer
	if err := EvalBatchEndpoint.Request.Encode(&jsonBody, jsonContentType, breq); err != nil {
		t.Fatal(err)
	}
	framed, err := EvalBatchEndpoint.Request.Frame(&scratch, jsonContentType, jsonBody.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := WalkBatchEvalRequest(framed)
	if err != nil || len(fromJSON) != len(items) {
		t.Fatalf("framed JSON batch: %d items, err %v", len(fromJSON), err)
	}
	for i := range items {
		if fromJSON[i].Spread != items[i].Spread || string(fromJSON[i].Interface) != string(items[i].Interface) {
			t.Errorf("item %d: JSON caller fingerprints %x for %q, binary caller %x for %q",
				i, fromJSON[i].Spread, fromJSON[i].Interface, items[i].Spread, items[i].Interface)
		}
	}
	if _, err := EvalBatchEndpoint.Request.Frame(&scratch, jsonContentType, []byte(`{"requests":[{"interfce":"x"}]}`)); err == nil {
		t.Error("a JSON batch with an unknown field was framed")
	}
}

// TestBatchDecodeInterning: the batch decoders share repeated names
// through a bounded table; names past its bounds decode as themselves.
func TestBatchDecodeInterning(t *testing.T) {
	long := string(bytes.Repeat([]byte("n"), maxInternLen+1))
	var breq BatchEvalRequest
	for i := 0; i < 3*maxInternEntries; i++ {
		name := "stack" + string(rune('a'+i%26)) + string(rune('a'+i/26))
		breq.Requests = append(breq.Requests,
			EvalRequest{Interface: name, Method: long, Mode: "expected", Fixed: Fixed{name: core.Num(1)}},
			EvalRequest{Interface: "hot", Method: "m", Mode: "expected", Args: Args{core.Record(map[string]core.Value{"pixels": core.Int(i)})}})
	}
	frame := mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, &breq) })
	got, err := DecodeBatchEvalRequest(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(frame, mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, got) })) {
		t.Fatal("batch with more distinct names than the intern table holds did not round-trip")
	}
	// 256 items that repeat their three names cost the decode's fixed
	// allocations and nothing per item (it was three strings each).
	breq.Requests = breq.Requests[:0]
	for i := 0; i < 256; i++ {
		breq.Requests = append(breq.Requests, EvalRequest{Interface: "hot", Method: "m", Mode: "expected"})
	}
	frame = mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, &breq) })
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeBatchEvalRequest(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Errorf("decoding 256 items that share their names made %.0f allocations, want a handful", allocs)
	}
}
