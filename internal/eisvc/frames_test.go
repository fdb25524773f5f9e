package eisvc

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"math"
	"net/http"
	"testing"

	"energyclarity/internal/core"
)

// Pins on the binary layouts: the bytes one frame of every kind encodes
// to, where the walkers put a batch's items and how they fingerprint them,
// and what laying a frame out costs. The digests were recorded from the
// hand-written encoders and walkers the layouts replaced; the allocation
// counts are at or below theirs (frameAllocs says where and why).

// oddDist carries every float bit pattern JSON cannot.
var oddDist = WireDist{Support: oddFloats, Probs: oddFloats, Mean: math.NaN(), Std: 1, Min: math.Inf(-1), Max: math.Inf(1), P99: math.Copysign(0, -1)}

// frameKind is one frame of one kind, with the ways the package reads it.
type frameKind struct {
	name   string
	encode func(*bytes.Buffer) error
	decode func([]byte) error
	walk   func([]byte) error // nil for the kinds the router never walks
}

func codecKind[T any](name string, c *Codec[T], v *T) frameKind {
	return frameKind{
		name:   name,
		encode: func(b *bytes.Buffer) error { return c.Encode(b, BinaryContentType, v) },
		decode: func(frame []byte) error { _, err := c.Decode(BinaryContentType, frame); return err },
	}
}

// frameKinds is one frame of each of the seven kinds.
func frameKinds() []frameKind {
	w := oddDist
	snap := &CacheSnapshot{
		NodeID: "node-1",
		Memo:   []MemoEntry{{Key: "k", Support: oddFloats[3:], Probs: []float64{1, 0, 0, 0}}},
		Layer:  []LayerEntry{{Key: "lk", Joules: math.Inf(1)}},
	}
	walker := func(walk func([]FrameItem, []byte) ([]FrameItem, error)) func([]byte) error {
		return func(frame []byte) error { _, err := walk(nil, frame); return err }
	}
	kinds := []frameKind{
		codecKind("eval request", &EvalEndpoint.Request, testEvalRequest()),
		codecKind("eval response", &EvalEndpoint.Response, &EvalResponse{
			Interface: "mlservice", Version: 42, Method: "handle_request", Mode: "expected",
			Dist: oddDist, Cached: true, Coalesced: true, Peer: true, Node: "node-3"}),
		codecKind("batch request", &EvalBatchEndpoint.Request, walkBatchRequests()),
		codecKind("batch response", &EvalBatchEndpoint.Response, walkBatchResults()),
		codecKind("cache lookup request", &CacheLookupEndpoint.Request, &CacheLookupRequest{Keys: lookupKeys(3)}),
		codecKind("cache lookup response", &CacheLookupEndpoint.Response, &CacheLookupResponse{
			Results: lookupResults(3, &w, func(i int) bool { return i%3 == 1 }), Node: "node-1"}),
		codecKind("snapshot", &snapshotCodec, snap),
	}
	kinds[0].walk = func(frame []byte) error { _, err := WalkEvalRequest(frame); return err }
	kinds[2].walk = walker(WalkBatchEvalRequest)
	kinds[3].walk = walker(WalkBatchEvalResponse)
	return kinds
}

// wideBatch is a 256-item batch of the shapes batch_sched sends — record
// arguments, a list now and then, pinned ECVs on every fifth item — and an
// answer with hits, dedups and errors.
func wideBatch() (*BatchEvalRequest, *BatchEvalResponse) {
	stacks := []string{"mlservice", "storage", "gpu_stack"}
	modes := []string{"expected", "worst-case", "monte-carlo", "fixed"}
	req, resp := &BatchEvalRequest{}, &BatchEvalResponse{}
	for i := 0; i < 256; i++ {
		r := EvalRequest{
			Interface: stacks[i%3], Method: "handle", Mode: modes[i%4],
			Samples: 64 * (i % 3), Seed: int64(i % 7), Parallelism: i % 2,
			Args: Args{core.Record(map[string]core.Value{"pixels": core.Int(i % 64), "zeros": core.Num(0)})},
		}
		if i%5 == 0 {
			r.Fixed = Fixed{"gpu.mem": core.Str("hbm"), "cpu.freq": core.Num(float64(i))}
		}
		if i%11 == 0 {
			r.Args = append(r.Args, core.List(core.Bool(true), core.Nil(), core.Str("tag")))
		}
		req.Requests = append(req.Requests, r)
		it := BatchEvalItem{Interface: r.Interface, Version: uint64(i%3 + 1), Method: r.Method, Mode: r.Mode,
			Status: http.StatusOK, Cached: i%2 == 0, Deduped: i%9 == 0,
			Dist: &WireDist{Support: []float64{float64(i), float64(i) + 0.5}, Probs: []float64{0.25, 0.75}, Mean: float64(i) + 0.375}}
		if i%13 == 0 {
			it = BatchEvalItem{Interface: r.Interface, Method: r.Method, Status: http.StatusNotFound, Error: "no interface"}
		}
		resp.Results = append(resp.Results, it)
	}
	return req, resp
}

// walkDigest folds what a walker reports — every item's range, interface
// and fingerprint — into one FNV-64.
func walkDigest(items []FrameItem) uint64 {
	h := fnv.New64a()
	for _, it := range items {
		var b [24]byte
		binary.LittleEndian.PutUint64(b[0:], uint64(it.Off))
		binary.LittleEndian.PutUint64(b[8:], uint64(it.End))
		binary.LittleEndian.PutUint64(b[16:], it.Spread)
		h.Write(b[:])
		h.Write(it.Interface)
	}
	return h.Sum64()
}

// pinnedFrames is the FNV-64a of each fixture frame, and of what the
// walkers report on wideBatch's two frames.
var pinnedFrames = map[string]uint64{
	"eval request":             0xba55ee3968df650b,
	"eval response":            0xa25bcd18306b936b,
	"batch request":            0x221eca132e7e3e14,
	"batch response":           0x554b6286636449f8,
	"cache lookup request":     0x6413f8c6723a1d0e,
	"cache lookup response":    0x236763994c6f19b7,
	"snapshot":                 0x4457bfe10de1876c,
	"batch refusal":            0x5cd92190489ef14c,
	"ref batch request":        0x25bdc14786ea061b,
	"ref batch response":       0x3ea033bf97c1a923,
	"held batch request":       0x10269927ee152716,
	"held batch response":      0xbd0b73dc74752c6c,
	"wide batch request walk":  0x331169210564cb00,
	"wide batch response walk": 0xbf2d57ebde8f8300,
}

// TestFramesUnchanged: every frame kind encodes to the bytes it always
// has, and the walkers put a 256-item batch's items where they always
// have, with the fingerprints they always had. TestMemoKeyBytesUnchanged
// is the same pin for memo keys.
func TestFramesUnchanged(t *testing.T) {
	got := map[string]uint64{}
	digest := func(name string, enc func(*bytes.Buffer) error) {
		h := fnv.New64a()
		h.Write(mustEncode(t, enc))
		got[name] = h.Sum64()
	}
	for _, k := range frameKinds() {
		digest(k.name, k.encode)
	}
	// The answer item the router appends for a request nobody answered.
	batch := binaryFrame(&EvalBatchEndpoint.Request, walkBatchRequests())
	items, err := WalkBatchEvalRequest(nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	digest("batch refusal", func(b *bytes.Buffer) error {
		BeginBatchEvalResponse(b, 1)
		AppendBatchEvalError(b, batch[items[0].Off:items[0].End], http.StatusServiceUnavailable, "down")
		return nil
	})

	breq, bresp := wideBatch()
	reqFrame := mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, breq) })
	respFrame := mustEncode(t, func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, bresp) })
	reqItems, err := WalkBatchEvalRequest(nil, reqFrame)
	if err != nil || len(reqItems) != 256 {
		t.Fatalf("wide request batch: %d items, err %v", len(reqItems), err)
	}
	respItems, err := WalkBatchEvalResponse(nil, respFrame)
	if err != nil || len(respItems) != 256 {
		t.Fatalf("wide answer batch: %d items, err %v", len(respItems), err)
	}
	// Frames with ref items, as a client sends and a node answers them.
	digest("ref batch request", func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, refBatchRequests()) })
	digest("ref batch response", func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, refBatchResults()) })
	// And with held items.
	digest("held batch request", func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, heldBatchRequests()) })
	digest("held batch response", func(b *bytes.Buffer) error { return EncodeBatchEvalResponse(b, heldBatchResults()) })
	got["wide batch request walk"] = walkDigest(reqItems)
	got["wide batch response walk"] = walkDigest(respItems)
	for name, sum := range got {
		t.Logf("%q: 0x%016x,", name, sum)
		if want, ok := pinnedFrames[name]; !ok || sum != want {
			t.Errorf("%s: digest %016x, pinned %016x", name, sum, want)
		}
	}
}

// frameAllocs is what laying out each frameKinds frame costs, in
// allocations. Encoding allocates nothing: a record argument's sorted
// field names are listed into a buffer on the stack
// (core.Value.AppendFieldNames; eval request 1 → 0, batch request
// 2 → 0), and the hand-written encoders also allocated for the sorted
// pinned-ECV names. Decoding and walking cost what the hand-written
// decoders and walkers did, less the intern table a batch decode now takes
// from the coder pool (batch request 35 → 30, batch response 15 → 13),
// the walker state a batch walk no longer puts on the heap (2 → 1), and
// one allocation per distribution, whose two vectors now share one
// (eval response 7 → 6, batch response 13 → 11, cache lookup response
// 6 → 5). A batch's items decode their arguments into one array, not one
// each (batch request 30 → 29: two items have arguments), and a cache
// lookup's keys are substrings of one copy of the frame, not a copy each
// (cache lookup request 5 → 3: three keys).
var frameAllocs = map[string]struct{ encode, decode, walk float64 }{
	"eval request":          {0, 17, 0},
	"eval response":         {0, 6, 0},
	"batch request":         {0, 29, 1},
	"batch response":        {0, 11, 1},
	"cache lookup request":  {0, 3, 0},
	"cache lookup response": {0, 5, 0},
	"snapshot":              {0, 7, 0},
}

// TestFrameAllocs holds encoding, decoding and walking each kind of frame
// to its allocation count.
func TestFrameAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	for _, k := range frameKinds() {
		frame := mustEncode(t, k.encode)
		var buf bytes.Buffer
		buf.Grow(2 * len(frame))
		enc := testing.AllocsPerRun(50, func() {
			buf.Reset()
			if err := k.encode(&buf); err != nil {
				t.Fatal(err)
			}
		})
		dec := testing.AllocsPerRun(50, func() {
			if err := k.decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		var walk float64
		if k.walk != nil {
			walk = testing.AllocsPerRun(50, func() {
				if err := k.walk(frame); err != nil {
					t.Fatal(err)
				}
			})
		}
		if want := frameAllocs[k.name]; enc != want.encode || dec != want.decode || walk != want.walk {
			t.Errorf("%s: encode %v, decode %v, walk %v allocations; want %v, %v, %v",
				k.name, enc, dec, walk, want.encode, want.decode, want.walk)
		}
	}
}

// TestCountBoundsAreMinimalElements: every count bound is what the least
// element of its sequence encodes to, measured through the layouts as what
// one zero element adds to a payload. A layout that gains a field without
// its bound fails here. The name-value pairs of records and pinned ECVs
// keep a looser bound than their 5 bytes (minField). The least batch item
// of either kind is a ref: what a second zero item adds to the first.
func TestCountBoundsAreMinimalElements(t *testing.T) {
	size := func(lay func(*coder, int), n int) int {
		var buf bytes.Buffer
		c := newCoder(encoding, &buf, nil)
		lay(c, n)
		c.release()
		return buf.Len()
	}
	pairs := func(n int) map[string]core.Value {
		m := map[string]core.Value{}
		if n > 0 {
			m[""] = core.Nil()
		}
		return m
	}
	for _, c := range []struct {
		name  string
		bound int
		loose bool              // the bound may be below the least element
		lay   func(*coder, int) // lays out a payload holding n zero elements
	}{
		{"request item", minBatchItem, false, func(c *coder, n int) {
			c.batchRequest(&BatchEvalRequest{Requests: make([]EvalRequest, n+1)})
		}},
		{"answer item", minBatchItem, false, func(c *coder, n int) {
			c.batchResponse(&BatchEvalResponse{Results: make([]BatchEvalItem, n+1), refs: make([]int, n+1)})
		}},
		{"key", minKey, false, func(c *coder, n int) { c.cacheLookupRequest(&CacheLookupRequest{Keys: make([]string, n)}) }},
		{"result", minResult, false, func(c *coder, n int) {
			c.cacheLookupResponse(&CacheLookupResponse{Results: make([]CacheLookupResult, n)})
		}},
		{"summary fingerprint", minFingerprint, false, func(c *coder, n int) {
			c.cacheLookupResponse(&CacheLookupResponse{Summary: make([]uint32, n)})
		}},
		{"snapshot memo entry", minMemoEntry, false, func(c *coder, n int) { c.snapshot(&CacheSnapshot{Memo: make([]MemoEntry, n)}) }},
		{"snapshot layer entry", minLayerEntry, false, func(c *coder, n int) { c.snapshot(&CacheSnapshot{Layer: make([]LayerEntry, n)}) }},
		{"argument", minValue, false, func(c *coder, n int) { c.evalRequest(&EvalRequest{Args: make(Args, n)}) }},
		{"list element", minValue, false, func(c *coder, n int) { c.value(core.List(make([]core.Value, n)...), 0) }},
		{"pinned ECV", minField, true, func(c *coder, n int) { c.evalRequest(&EvalRequest{Fixed: pairs(n)}) }},
		{"record field", minField, true, func(c *coder, n int) { c.value(core.Record(pairs(n)), 0) }},
	} {
		least := size(c.lay, 1) - size(c.lay, 0)
		if c.bound != least && !(c.loose && c.bound < least) {
			t.Errorf("%s: counts are checked at %d bytes an element; the least one encodes to %d", c.name, c.bound, least)
		}
	}
}
