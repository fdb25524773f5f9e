package eisvc

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// oddFloats are the bit patterns JSON cannot round-trip (NaN, ±Inf) or
// quietly normalizes (negative zero); the binary codec must carry all of
// them exactly.
var oddFloats = []float64{
	math.NaN(),
	math.Inf(1),
	math.Inf(-1),
	math.Copysign(0, -1),
	math.MaxFloat64,
	math.SmallestNonzeroFloat64,
	1.0 / 3.0,
}

// bitsEqual compares float slices by bit pattern (NaN-safe).
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func testEvalRequest() *EvalRequest {
	return &EvalRequest{
		Interface: "mlservice",
		Method:    "handle_request",
		Args: Args{core.Num(3), core.Str("gpu"), core.Bool(true), core.Nil(),
			core.List(core.Num(1.5), core.Str("x")),
			core.Record(map[string]core.Value{"b": core.Num(2), "a": core.List(core.Bool(false))})},
		Mode:        "monte-carlo",
		Samples:     4096,
		Seed:        -7,
		EnumLimit:   512,
		Parallelism: 8,
		Fixed:       Fixed{"cpu.freq": core.Num(2.1), "gpu.mem": core.Str("hbm")},
		DeadlineMs:  250,
	}
}

func testWireDist(t *testing.T) WireDist {
	t.Helper()
	d, err := energy.FromSorted([]float64{1, 2.5, 7}, []float64{0.25, 0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return ToWire(d)
}

func TestCodecEvalRequestRoundTrip(t *testing.T) {
	req := testEvalRequest()
	var buf bytes.Buffer
	if err := EncodeEvalRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvalRequest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, got) {
		t.Fatalf("round trip mismatch:\n in  %#v\n out %#v", req, got)
	}
}

func TestCodecEvalRequestDeterministic(t *testing.T) {
	req := testEvalRequest()
	var a, b bytes.Buffer
	if err := EncodeEvalRequest(&a, req); err != nil {
		t.Fatal(err)
	}
	if err := EncodeEvalRequest(&b, req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical requests encoded to different bytes")
	}
}

func TestCodecEvalResponseRoundTrip(t *testing.T) {
	resp := &EvalResponse{
		Interface: "mlservice",
		Version:   42,
		Method:    "handle_request",
		Mode:      "expected",
		Dist:      testWireDist(t),
		Cached:    true,
		Coalesced: true,
		Peer:      true,
		Node:      "node-3",
	}
	// Odd float bit patterns must survive in every dist field.
	resp.Dist.Support = append([]float64{}, oddFloats...)
	resp.Dist.Probs = append([]float64{}, oddFloats...)
	resp.Dist.Mean = math.NaN()
	resp.Dist.P99 = math.Copysign(0, -1)

	var buf bytes.Buffer
	if err := EncodeEvalResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeEvalResponse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Interface != resp.Interface || got.Version != resp.Version ||
		got.Method != resp.Method || got.Mode != resp.Mode || got.Node != resp.Node ||
		!got.Cached || !got.Coalesced || !got.Peer {
		t.Fatalf("scalar fields mismatch: %#v", got)
	}
	if !bitsEqual(got.Dist.Support, resp.Dist.Support) || !bitsEqual(got.Dist.Probs, resp.Dist.Probs) {
		t.Fatal("dist vectors not bit-identical")
	}
	if math.Float64bits(got.Dist.Mean) != math.Float64bits(resp.Dist.Mean) ||
		math.Float64bits(got.Dist.P99) != math.Float64bits(resp.Dist.P99) {
		t.Fatal("dist summary stats not bit-identical")
	}
}

func TestCodecBatchRoundTrip(t *testing.T) {
	req := &BatchEvalRequest{Requests: []EvalRequest{*testEvalRequest(), {Interface: "a", Method: "m", Mode: "fixed"}}}
	var buf bytes.Buffer
	if err := EncodeBatchEvalRequest(&buf, req); err != nil {
		t.Fatal(err)
	}
	gotReq, err := DecodeBatchEvalRequest(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req, gotReq) {
		t.Fatalf("batch request mismatch:\n in  %#v\n out %#v", req, gotReq)
	}

	wd := testWireDist(t)
	resp := &BatchEvalResponse{Results: []BatchEvalItem{
		{Interface: "a", Version: 7, Method: "m", Mode: "fixed", Status: 200, Dist: &wd, Cached: true, Deduped: true},
		{Interface: "b", Method: "m2", Status: 422, Error: "eval: boom"},
	}}
	buf.Reset()
	if err := EncodeBatchEvalResponse(&buf, resp); err != nil {
		t.Fatal(err)
	}
	gotResp, err := DecodeBatchEvalResponse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp, gotResp) {
		t.Fatalf("batch response mismatch:\n in  %#v\n out %#v", resp, gotResp)
	}
}

// lookupKeys makes n distinct canonical-looking memo keys.
func lookupKeys(n int) []string {
	var keys []string
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("mlservice@3|handle_request|m4|s4096|l0|r1|A[n%d;]|F{}", i))
	}
	return keys
}

// lookupResults makes n probe results: found(i) says which carry wd.
func lookupResults(n int, wd *WireDist, found func(i int) bool) []CacheLookupResult {
	var out []CacheLookupResult
	for i := 0; i < n; i++ {
		r := CacheLookupResult{}
		if found(i) {
			r = CacheLookupResult{Found: true, Dist: wd}
		}
		out = append(out, r)
	}
	return out
}

// TestCodecCacheLookupRoundTrip: the multi-key probe frames survive both
// codecs for 0, 1 and 300 keys, all-miss, all-hit and mixed.
func TestCodecCacheLookupRoundTrip(t *testing.T) {
	wd := testWireDist(t)
	shapes := map[string]func(int) bool{
		"all-miss": func(int) bool { return false },
		"all-hit":  func(int) bool { return true },
		"mixed":    func(i int) bool { return i%3 == 1 },
	}
	ep := CacheLookupEndpoint
	for _, contentType := range []string{BinaryContentType, jsonContentType} {
		for _, n := range []int{0, 1, 300} {
			req := &CacheLookupRequest{Keys: lookupKeys(n)}
			var buf bytes.Buffer
			if err := ep.Request.Encode(&buf, contentType, req); err != nil {
				t.Fatal(err)
			}
			gotReq, err := ep.Request.Decode(contentType, buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(req, gotReq) {
				t.Fatalf("%s: %d-key request mismatch: %#v", contentType, n, gotReq)
			}
			for shape, found := range shapes {
				resp := &CacheLookupResponse{Results: lookupResults(n, &wd, found), Node: "node-1"}
				buf.Reset()
				if err := ep.Response.Encode(&buf, contentType, resp); err != nil {
					t.Fatal(err)
				}
				got, err := ep.Response.Decode(contentType, buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(resp, got) {
					t.Fatalf("%s: %d-key %s response mismatch:\n in  %#v\n out %#v", contentType, n, shape, resp, got)
				}
			}
		}
	}

	// The summary bit and the summary round-trip too; an empty summary
	// stays empty, not absent.
	for _, contentType := range []string{BinaryContentType, jsonContentType} {
		for _, v := range []any{
			&CacheLookupRequest{Keys: lookupKeys(2), Summary: true},
			&CacheLookupResponse{Results: lookupResults(2, &wd, shapes["mixed"]), Summary: []uint32{1, 9, math.MaxUint32}},
			&CacheLookupResponse{Results: lookupResults(1, &wd, shapes["all-miss"]), Summary: []uint32{}},
		} {
			var got any
			var err error
			var buf bytes.Buffer
			switch v := v.(type) {
			case *CacheLookupRequest:
				if err = ep.Request.Encode(&buf, contentType, v); err == nil {
					got, err = ep.Request.Decode(contentType, buf.Bytes())
				}
			case *CacheLookupResponse:
				if err = ep.Response.Encode(&buf, contentType, v); err == nil {
					got, err = ep.Response.Decode(contentType, buf.Bytes())
				}
			}
			if err != nil || !reflect.DeepEqual(v, got) {
				t.Fatalf("%s: summary round trip: %v\n in  %#v\n out %#v", contentType, err, v, got)
			}
		}
	}
	// A summary out of order, or with a repeat, is refused.
	for _, bad := range [][]uint32{{9, 1}, {4, 4}} {
		frame := binaryFrame(&ep.Response, &CacheLookupResponse{Summary: bad})
		if _, err := ep.Response.Decode(BinaryContentType, frame); err == nil {
			t.Errorf("summary %v decoded", bad)
		}
	}

	// Every strict prefix of a multi-key frame is an error, never a panic.
	refusesEveryPrefix(t, "request", &ep.Request, &CacheLookupRequest{Keys: lookupKeys(3)})
	refusesEveryPrefix(t, "response", &ep.Response, &CacheLookupResponse{Results: lookupResults(3, &wd, shapes["mixed"])})
}

// binaryFrame is v's frame in c's binary layout.
func binaryFrame[T any](c *Codec[T], v *T) []byte {
	var buf bytes.Buffer
	if err := c.Encode(&buf, BinaryContentType, v); err != nil {
		panic(err) // the binary encoder has no error to return
	}
	return buf.Bytes()
}

// refusesEveryPrefix checks that every strict prefix of v's frame decodes
// to an error: never a panic, never a bogus success.
func refusesEveryPrefix[T any](t *testing.T, what string, c *Codec[T], v *T) {
	t.Helper()
	full := binaryFrame(c, v)
	for n := 0; n < len(full); n++ {
		if _, err := c.Decode(BinaryContentType, full[:n]); err == nil {
			t.Fatalf("%s truncated to %d/%d bytes decoded without error", what, n, len(full))
		}
	}
}

// TestCodecTruncation checks every strict prefix of a valid frame decodes
// to an error (never a panic, never a bogus success).
func TestCodecTruncation(t *testing.T) {
	refusesEveryPrefix(t, "eval request", &EvalEndpoint.Request, testEvalRequest())
	full := binaryFrame(&EvalEndpoint.Request, testEvalRequest())
	// Wrong version byte and wrong kind byte are rejected too.
	bad := append([]byte{}, full...)
	bad[3] = binVersion + 1
	if _, err := DecodeEvalRequest(bad); err == nil {
		t.Fatal("version mismatch accepted")
	}
	bad = append([]byte{}, full...)
	bad[4] = kindSnapshot
	if _, err := DecodeEvalRequest(bad); err == nil {
		t.Fatal("kind mismatch accepted")
	}
}

// addCodecSeeds gives a fuzz target one well-formed frame of every kind
// plus a few malformed heads.
func addCodecSeeds(f *testing.F) {
	f.Add(binaryFrame(&EvalEndpoint.Request, testEvalRequest()))
	f.Add(binaryFrame(&EvalEndpoint.Response, &EvalResponse{
		Interface: "s", Version: 1, Method: "m", Mode: "expected",
		Dist: WireDist{Support: oddFloats, Probs: oddFloats, Mean: math.NaN()},
	}))
	f.Add(binaryFrame(&EvalBatchEndpoint.Request, &BatchEvalRequest{Requests: []EvalRequest{*testEvalRequest()}}))
	w := WireDist{Support: []float64{math.Inf(-1), 0}, Probs: []float64{0.5, 0.5}}
	f.Add(binaryFrame(&EvalBatchEndpoint.Response, &BatchEvalResponse{Results: []BatchEvalItem{{Status: 200, Dist: &w}}}))
	// Ref items of both kinds (FuzzFrameWalk takes these seeds too).
	f.Add(binaryFrame(&EvalBatchEndpoint.Request, refBatchRequests()))
	f.Add(binaryFrame(&EvalBatchEndpoint.Response, refBatchResults()))
	// And held items, with refs to them.
	held := refBatchRequests()
	held.held = []uint64{3, 0, 5, 0, 0, 0}
	f.Add(binaryFrame(&EvalBatchEndpoint.Request, held))
	f.Add(binaryFrame(&EvalBatchEndpoint.Response, heldBatchResults()))
	heldRefs := refBatchResults()
	heldRefs.Results[0].held = true
	f.Add(binaryFrame(&EvalBatchEndpoint.Response, heldRefs))
	w0 := WireDist{Support: []float64{math.Copysign(0, -1)}, Probs: []float64{1}}
	f.Add(binaryFrame(&CacheLookupEndpoint.Response, &CacheLookupResponse{
		Results: []CacheLookupResult{{Found: true, Dist: &w0}, {}, {Found: true, Dist: &w0}}, Node: "node-1"}))
	f.Add(binaryFrame(&CacheLookupEndpoint.Response, &CacheLookupResponse{}))
	f.Add(binaryFrame(&CacheLookupEndpoint.Request, &CacheLookupRequest{}))
	f.Add(binaryFrame(&CacheLookupEndpoint.Request, &CacheLookupRequest{Keys: lookupKeys(1)}))
	f.Add(binaryFrame(&CacheLookupEndpoint.Request, &CacheLookupRequest{Keys: lookupKeys(300)}))
	f.Add(binaryFrame(&CacheLookupEndpoint.Request, &CacheLookupRequest{Keys: lookupKeys(2), Summary: true}))
	f.Add(binaryFrame(&CacheLookupEndpoint.Response, &CacheLookupResponse{
		Results: []CacheLookupResult{{Found: true, Dist: &w0}, {}}, Node: "node-2", Summary: []uint32{0, 7, 1 << 31, math.MaxUint32}}))
	f.Add(binaryFrame(&CacheLookupEndpoint.Response, &CacheLookupResponse{Results: make([]CacheLookupResult, 1), Summary: []uint32{}}))
	f.Add(binaryFrame(&snapshotCodec, &CacheSnapshot{
		NodeID: "node-1",
		Memo:   []MemoEntry{{Key: "k", Support: oddFloats[3:], Probs: []float64{1, 0, 0, 0}}},
		Layer:  []LayerEntry{{Key: "lk", Joules: math.Inf(1)}},
	}))
	// Kinds 8 and 9 were a retired route's request and response: a frame
	// under either is refused, whatever its payload.
	retired := func(frame []byte, kind byte) []byte {
		frame[4] = kind
		return frame
	}
	f.Add(retired(binaryFrame(&EvalEndpoint.Request, testEvalRequest()), 8))
	f.Add(retired(binaryFrame(&EvalBatchEndpoint.Request, &BatchEvalRequest{Requests: []EvalRequest{*testEvalRequest()}}), 8))
	f.Add(retired(binaryFrame(&EvalEndpoint.Response, &EvalResponse{Interface: "s", Mode: "expected"}), 9))
	f.Add([]byte{})
	f.Add(binMagic[:])
	f.Add(append(append([]byte{}, binMagic[:]...), kindSnapshot, 0xff, 0xff, 0xff, 0xff))
}

// reencodes is FuzzCodecRoundTrip's property for one codec: bytes it
// refuses are fine, and a value it takes is canonical after one pass —
// decode, encode, decode, encode writes the same bytes twice.
func reencodes[T any](c *Codec[T]) func([]byte) error {
	return func(data []byte) error {
		v, err := c.Decode(BinaryContentType, data)
		if err != nil {
			return nil
		}
		once := binaryFrame(c, v)
		if v, err = c.Decode(BinaryContentType, once); err != nil {
			return fmt.Errorf("kind %d: re-encoded frame does not decode: %v", c.kind, err)
		}
		if twice := binaryFrame(c, v); !bytes.Equal(once, twice) {
			return fmt.Errorf("kind %d: encoding not canonical:\n once  %x\n twice %x", c.kind, once, twice)
		}
		return nil
	}
}

// framesJSON is FuzzCodecRoundTrip's property for the JSON side of a
// request codec, the side the router transcodes: bytes strict JSON
// decoding refuses are fine; what it takes, Frame turns into a frame that
// reencodes accepts, and that frame decoded, encoded as JSON and framed
// again is the same bytes.
func framesJSON[T any](c *Codec[T]) func([]byte) error {
	return func(data []byte) error {
		var scratch, js, again bytes.Buffer
		frame, err := c.Frame(&scratch, jsonContentType, data)
		if err != nil {
			return nil
		}
		v, err := c.Decode(BinaryContentType, frame)
		if err != nil {
			return fmt.Errorf("kind %d: the frame of JSON %q does not decode: %v", c.kind, data, err)
		}
		if err := reencodes(c)(frame); err != nil {
			return err
		}
		if err := c.Encode(&js, jsonContentType, v); err != nil {
			return fmt.Errorf("kind %d: the frame of JSON %q does not encode as JSON: %v", c.kind, data, err)
		}
		twice, err := c.Frame(&again, jsonContentType, js.Bytes())
		if err != nil {
			return fmt.Errorf("kind %d: JSON %q re-encoded as %q is refused: %v", c.kind, data, js.Bytes(), err)
		}
		if !bytes.Equal(frame, twice) {
			return fmt.Errorf("kind %d: JSON %q re-encoded as %q frames differently:\n once  %x\n twice %x", c.kind, data, js.Bytes(), frame, twice)
		}
		return nil
	}
}

// addJSONSeeds gives a fuzz target docs/EID.md's `POST /v1/eval` request
// example, alone and as a batch's one item, and a memo probe.
func addJSONSeeds(f *testing.F) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "EID.md"))
	if err != nil {
		f.Fatal(err)
	}
	_, after, _ := strings.Cut(string(doc), "### `POST /v1/eval`\n\n```json\n")
	example, _, ok := strings.Cut(after, "```")
	if !ok {
		f.Fatal("docs/EID.md has no `POST /v1/eval` JSON example")
	}
	if _, err := EvalEndpoint.Request.Decode(jsonContentType, []byte(example)); err != nil {
		f.Fatalf("docs/EID.md's `POST /v1/eval` example does not decode: %v", err)
	}
	f.Add([]byte(example))
	f.Add([]byte(`{"requests": [` + example + `]}`))
	f.Add([]byte(`{"keys": ["k1", "k2"], "summary": true}`))
}

// FuzzCodecRoundTrip drives every binary codec — each endpoint's request
// and response, and the snapshot file — with arbitrary bytes: a decoder
// refuses them or takes them, never panics, and what it takes re-encodes
// canonically (reencodes), the property the router's verbatim
// passthrough relies on. The same bytes go to each endpoint's request
// codec as JSON (framesJSON), the router's transcoding.
func FuzzCodecRoundTrip(f *testing.F) {
	addCodecSeeds(f)
	addJSONSeeds(f)
	binary := map[string][]func([]byte) error{
		EvalEndpoint.Path:        {reencodes(&EvalEndpoint.Request), reencodes(&EvalEndpoint.Response)},
		EvalBatchEndpoint.Path:   {reencodes(&EvalBatchEndpoint.Request), reencodes(&EvalBatchEndpoint.Response)},
		CacheLookupEndpoint.Path: {reencodes(&CacheLookupEndpoint.Request), reencodes(&CacheLookupEndpoint.Response)},
	}
	asJSON := map[string]func([]byte) error{
		EvalEndpoint.Path:        framesJSON(&EvalEndpoint.Request),
		EvalBatchEndpoint.Path:   framesJSON(&EvalBatchEndpoint.Request),
		CacheLookupEndpoint.Path: framesJSON(&CacheLookupEndpoint.Request),
	}
	checks := []func([]byte) error{reencodes(&snapshotCodec)}
	for _, path := range Endpoints {
		if binary[path] == nil || asJSON[path] == nil {
			f.Fatalf("%s is in the endpoint table but not fuzzed in both codecs", path)
		}
		checks = append(append(checks, binary[path]...), asJSON[path])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, check := range checks {
			if err := check(data); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestBatchArgsDecodeOnce: decoding a batch request, the items' arguments
// cost one allocation whatever the batch's size — measured as what a batch
// of items with arguments allocates beyond the same batch without them, at
// 64 and at 256 items — and each item's Args is a window of it capped at
// its own length, so appending to one item's leaves the next one's alone.
func TestBatchArgsDecodeOnce(t *testing.T) {
	batch := func(n int, args bool) []byte {
		req := &BatchEvalRequest{Requests: make([]EvalRequest, n)}
		for i := range req.Requests {
			it := &req.Requests[i]
			it.Interface, it.Method, it.Mode = "ml_webservice", "handle", "expected"
			if args && i%4 != 3 { // every fourth item has none
				it.Args = Args{core.Num(float64(i)), core.Bool(i%2 == 0)}
			}
		}
		return mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, req) })
	}
	decoded, err := DecodeBatchEvalRequest(batch(4, true))
	if err != nil {
		t.Fatal(err)
	}
	first, second := decoded.Requests[0].Args, decoded.Requests[1].Args
	if cap(first) != len(first) || decoded.Requests[3].Args != nil {
		t.Fatalf("item 0's Args has cap %d for %d values; item 3's is %v, want nil", cap(first), len(first), decoded.Requests[3].Args)
	}
	_ = append(first, core.Str("appended"))
	if n, _ := second[0].AsNum(); n != 1 {
		t.Errorf("appending to item 0's arguments changed item 1's to %v", second)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	decodeAllocs := func(frame []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := DecodeBatchEvalRequest(frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, n := range []int{64, 256} {
		if got := decodeAllocs(batch(n, true)) - decodeAllocs(batch(n, false)); got != 1 {
			t.Errorf("%d items: arguments cost %v allocations, want 1", n, got)
		}
	}
}
