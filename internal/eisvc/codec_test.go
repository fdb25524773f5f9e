package eisvc

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
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

	// Every strict prefix of a multi-key frame is an error, never a panic.
	var buf bytes.Buffer
	if err := EncodeCacheLookupRequest(&buf, &CacheLookupRequest{Keys: lookupKeys(3)}); err != nil {
		t.Fatal(err)
	}
	for n, full := 0, buf.Bytes(); n < len(full); n++ {
		if _, err := DecodeCacheLookupRequest(full[:n]); err == nil {
			t.Fatalf("request truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
	buf.Reset()
	if err := EncodeCacheLookupResponse(&buf, &CacheLookupResponse{Results: lookupResults(3, &wd, shapes["mixed"])}); err != nil {
		t.Fatal(err)
	}
	for n, full := 0, buf.Bytes(); n < len(full); n++ {
		if _, err := DecodeCacheLookupResponse(full[:n]); err == nil {
			t.Fatalf("response truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
}

func testOptimizeRequest() *OptimizeRequest {
	return &OptimizeRequest{
		Interface:     "moe_stack",
		EnergyMethod:  "energy",
		LatencyMethod: "latency",
		Knobs: []OptimizeKnob{
			{Name: "batch", Values: []float64{1, 2, 4, 8, 16}},
			{Name: "level", Values: append([]float64{}, oddFloats...)},
		},
		SLOMs:       25,
		Mode:        "expected",
		Samples:     4096,
		Seed:        -3,
		EnumLimit:   1 << 12,
		Parallelism: 4,
		MaxConfigs:  512,
		DeadlineMs:  750,
	}
}

func TestCodecOptimizeRequestRoundTrip(t *testing.T) {
	for _, req := range []*OptimizeRequest{
		testOptimizeRequest(),
		// Empty knob space: the neutral product is a valid sweep.
		{Interface: "s", EnergyMethod: "e", LatencyMethod: "l", SLOMs: math.Inf(1)},
	} {
		var buf bytes.Buffer
		if err := EncodeOptimizeRequest(&buf, req); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeOptimizeRequest(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got.Interface != req.Interface || got.EnergyMethod != req.EnergyMethod ||
			got.LatencyMethod != req.LatencyMethod || got.Mode != req.Mode ||
			math.Float64bits(got.SLOMs) != math.Float64bits(req.SLOMs) ||
			got.Samples != req.Samples || got.Seed != req.Seed ||
			got.EnumLimit != req.EnumLimit || got.Parallelism != req.Parallelism ||
			got.MaxConfigs != req.MaxConfigs || got.DeadlineMs != req.DeadlineMs {
			t.Fatalf("scalar fields mismatch:\n in  %#v\n out %#v", req, got)
		}
		if len(got.Knobs) != len(req.Knobs) {
			t.Fatalf("knob count mismatch: %#v", got.Knobs)
		}
		for i := range req.Knobs {
			if got.Knobs[i].Name != req.Knobs[i].Name || !bitsEqual(got.Knobs[i].Values, req.Knobs[i].Values) {
				t.Fatalf("knob %d not bit-identical: %#v", i, got.Knobs[i])
			}
		}
		var again bytes.Buffer
		if err := EncodeOptimizeRequest(&again, got); err != nil || !bytes.Equal(buf.Bytes(), again.Bytes()) {
			t.Fatal("optimize request encoding not canonical")
		}
	}
}

func TestCodecOptimizeResponseRoundTrip(t *testing.T) {
	// NaN/±Inf objectives must survive: a sweep reports unmeasurable
	// points as skipped, but the codec itself carries any bit pattern.
	odd := func(i int) float64 { return oddFloats[i%len(oddFloats)] }
	full := &OptimizeResponse{
		Interface: "moe_stack",
		Version:   9,
		Mode:      "expected",
		Knobs:     testOptimizeRequest().Knobs,
		SLOMs:     25,
		Configs:   60, Evaluated: 58, Skipped: 2, Evals: 120, MemoServed: 117,
		Frontier: []OptimizePoint{
			{Knobs: []float64{1, odd(0)}, EnergyJ: odd(1), LatencyMs: 15.5},
			{Knobs: []float64{16, 0}, EnergyJ: math.Inf(-1), LatencyMs: math.NaN()},
		},
		Digest:      0xdeadbeefcafef00d,
		Recommended: &OptimizePoint{Knobs: []float64{16, 1}, EnergyJ: 2.7e-6, LatencyMs: 24.9},
		MaxPerf:     &OptimizePoint{Knobs: []float64{1, 3}, EnergyJ: 1.1e-5, LatencyMs: 15.5},
		SavingsFrac: 0.76,
		Node:        "node-2",
	}
	empty := &OptimizeResponse{Interface: "s", Mode: "expected", SLOMs: 1}
	for _, resp := range []*OptimizeResponse{full, empty} {
		var buf bytes.Buffer
		if err := EncodeOptimizeResponse(&buf, resp); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeOptimizeResponse(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if got.Interface != resp.Interface || got.Version != resp.Version || got.Mode != resp.Mode ||
			got.Configs != resp.Configs || got.Evaluated != resp.Evaluated || got.Skipped != resp.Skipped ||
			got.Evals != resp.Evals || got.MemoServed != resp.MemoServed ||
			got.Digest != resp.Digest || got.Node != resp.Node ||
			math.Float64bits(got.SavingsFrac) != math.Float64bits(resp.SavingsFrac) {
			t.Fatalf("scalar fields mismatch:\n in  %#v\n out %#v", resp, got)
		}
		if len(got.Frontier) != len(resp.Frontier) {
			t.Fatalf("frontier length mismatch: %#v", got.Frontier)
		}
		for i := range resp.Frontier {
			p, q := resp.Frontier[i], got.Frontier[i]
			if !bitsEqual(q.Knobs, p.Knobs) ||
				math.Float64bits(q.EnergyJ) != math.Float64bits(p.EnergyJ) ||
				math.Float64bits(q.LatencyMs) != math.Float64bits(p.LatencyMs) {
				t.Fatalf("frontier[%d] not bit-identical: %#v vs %#v", i, q, p)
			}
		}
		if (got.Recommended == nil) != (resp.Recommended == nil) || (got.MaxPerf == nil) != (resp.MaxPerf == nil) {
			t.Fatalf("optional point presence mismatch: %#v", got)
		}
		if resp.Recommended != nil && !bitsEqual(got.Recommended.Knobs, resp.Recommended.Knobs) {
			t.Fatalf("recommended point mismatch: %#v", got.Recommended)
		}
	}
}

func TestCodecOptimizeTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeOptimizeRequest(&buf, testOptimizeRequest()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := DecodeOptimizeRequest(full[:n]); err == nil {
			t.Fatalf("request truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
	buf.Reset()
	err := EncodeOptimizeResponse(&buf, &OptimizeResponse{
		Interface: "s", Mode: "expected",
		Frontier:    []OptimizePoint{{Knobs: []float64{1}, EnergyJ: 2, LatencyMs: 3}},
		Recommended: &OptimizePoint{Knobs: []float64{1}, EnergyJ: 2, LatencyMs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	full = buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := DecodeOptimizeResponse(full[:n]); err == nil {
			t.Fatalf("response truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
}

// TestCodecTruncation checks every strict prefix of a valid frame decodes
// to an error (never a panic, never a bogus success).
func TestCodecTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeEvalRequest(&buf, testEvalRequest()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for n := 0; n < len(full); n++ {
		if _, err := DecodeEvalRequest(full[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(full))
		}
	}
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
	seed := func(enc func(*bytes.Buffer) error) {
		var buf bytes.Buffer
		if err := enc(&buf); err == nil {
			f.Add(buf.Bytes())
		}
	}
	seed(func(b *bytes.Buffer) error { return EncodeEvalRequest(b, testEvalRequest()) })
	seed(func(b *bytes.Buffer) error {
		return EncodeEvalResponse(b, &EvalResponse{
			Interface: "s", Version: 1, Method: "m", Mode: "expected",
			Dist: WireDist{Support: oddFloats, Probs: oddFloats, Mean: math.NaN()},
		})
	})
	seed(func(b *bytes.Buffer) error {
		return EncodeBatchEvalRequest(b, &BatchEvalRequest{Requests: []EvalRequest{*testEvalRequest()}})
	})
	seed(func(b *bytes.Buffer) error {
		w := WireDist{Support: []float64{math.Inf(-1), 0}, Probs: []float64{0.5, 0.5}}
		return EncodeBatchEvalResponse(b, &BatchEvalResponse{Results: []BatchEvalItem{{Status: 200, Dist: &w}}})
	})
	seed(func(b *bytes.Buffer) error {
		w := WireDist{Support: []float64{math.Copysign(0, -1)}, Probs: []float64{1}}
		return EncodeCacheLookupResponse(b, &CacheLookupResponse{
			Results: []CacheLookupResult{{Found: true, Dist: &w}, {}, {Found: true, Dist: &w}}, Node: "node-1"})
	})
	seed(func(b *bytes.Buffer) error { return EncodeCacheLookupResponse(b, &CacheLookupResponse{}) })
	seed(func(b *bytes.Buffer) error { return EncodeCacheLookupRequest(b, &CacheLookupRequest{}) })
	seed(func(b *bytes.Buffer) error {
		return EncodeCacheLookupRequest(b, &CacheLookupRequest{Keys: lookupKeys(1)})
	})
	seed(func(b *bytes.Buffer) error {
		return EncodeCacheLookupRequest(b, &CacheLookupRequest{Keys: lookupKeys(300)})
	})
	seed(func(b *bytes.Buffer) error {
		return EncodeCacheSnapshot(b, &CacheSnapshot{
			NodeID: "node-1",
			Memo:   []MemoEntry{{Key: "k", Support: oddFloats[3:], Probs: []float64{1, 0, 0, 0}}},
			Layer:  []LayerEntry{{Key: "lk", Joules: math.Inf(1)}},
		})
	})
	seed(func(b *bytes.Buffer) error { return EncodeOptimizeRequest(b, testOptimizeRequest()) })
	seed(func(b *bytes.Buffer) error {
		return EncodeOptimizeRequest(b, &OptimizeRequest{Interface: "s", EnergyMethod: "e", LatencyMethod: "l"})
	})
	seed(func(b *bytes.Buffer) error {
		return EncodeOptimizeResponse(b, &OptimizeResponse{
			Interface: "s", Mode: "expected",
			Frontier: []OptimizePoint{{Knobs: oddFloats, EnergyJ: math.NaN(), LatencyMs: math.Inf(1)}},
			MaxPerf:  &OptimizePoint{Knobs: []float64{1}},
		})
	})
	f.Add([]byte{})
	f.Add(binMagic[:])
	f.Add(append(append([]byte{}, binMagic[:]...), kindSnapshot, 0xff, 0xff, 0xff, 0xff))
}

// FuzzCodecRoundTrip drives the decoders with arbitrary bytes (they must
// error or round-trip cleanly, never panic) and, when the input happens
// to parse, asserts decode→encode→decode is bit-identical — the
// canonical-form property the router's verbatim passthrough relies on.
func FuzzCodecRoundTrip(f *testing.F) {
	addCodecSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		if req, err := DecodeEvalRequest(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeEvalRequest(&buf, req); err != nil {
				t.Fatalf("re-encode of decoded request failed: %v", err)
			}
			req2, err := DecodeEvalRequest(buf.Bytes())
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			var buf2 bytes.Buffer
			if err := EncodeEvalRequest(&buf2, req2); err != nil || !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("request encoding not canonical")
			}
		}
		if resp, err := DecodeEvalResponse(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeEvalResponse(&buf, resp); err != nil {
				t.Fatalf("re-encode of decoded response failed: %v", err)
			}
			resp2, err := DecodeEvalResponse(buf.Bytes())
			if err != nil || !bitsEqual(resp.Dist.Support, resp2.Dist.Support) || !bitsEqual(resp.Dist.Probs, resp2.Dist.Probs) {
				t.Fatalf("response round trip not bit-identical: %v", err)
			}
		}
		if br, err := DecodeBatchEvalRequest(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeBatchEvalRequest(&buf, br); err != nil {
				t.Fatalf("re-encode of decoded batch failed: %v", err)
			}
			if _, err := DecodeBatchEvalRequest(buf.Bytes()); err != nil {
				t.Fatalf("batch re-decode failed: %v", err)
			}
		}
		if bs, err := DecodeBatchEvalResponse(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeBatchEvalResponse(&buf, bs); err != nil {
				t.Fatalf("re-encode of decoded batch response failed: %v", err)
			}
		}
		if cq, err := DecodeCacheLookupRequest(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeCacheLookupRequest(&buf, cq); err != nil || !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("cache request encoding not canonical: %v", err)
			}
		}
		if cr, err := DecodeCacheLookupResponse(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeCacheLookupResponse(&buf, cr); err != nil {
				t.Fatalf("re-encode of decoded cache response failed: %v", err)
			}
			cr2, err := DecodeCacheLookupResponse(buf.Bytes())
			if err != nil || len(cr2.Results) != len(cr.Results) {
				t.Fatalf("cache response round trip changed the result count: %v", err)
			}
		}
		if or, err := DecodeOptimizeRequest(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeOptimizeRequest(&buf, or); err != nil {
				t.Fatalf("re-encode of decoded optimize request failed: %v", err)
			}
			or2, err := DecodeOptimizeRequest(buf.Bytes())
			if err != nil {
				t.Fatalf("optimize request re-decode failed: %v", err)
			}
			var buf2 bytes.Buffer
			if err := EncodeOptimizeRequest(&buf2, or2); err != nil || !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
				t.Fatal("optimize request encoding not canonical")
			}
		}
		if os, err := DecodeOptimizeResponse(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeOptimizeResponse(&buf, os); err != nil {
				t.Fatalf("re-encode of decoded optimize response failed: %v", err)
			}
			if _, err := DecodeOptimizeResponse(buf.Bytes()); err != nil {
				t.Fatalf("optimize response re-decode failed: %v", err)
			}
		}
		if snap, err := DecodeCacheSnapshot(data); err == nil {
			var buf bytes.Buffer
			if err := EncodeCacheSnapshot(&buf, snap); err != nil {
				t.Fatalf("re-encode of decoded snapshot failed: %v", err)
			}
			snap2, err := DecodeCacheSnapshot(buf.Bytes())
			if err != nil {
				t.Fatalf("snapshot re-decode failed: %v", err)
			}
			if len(snap2.Memo) != len(snap.Memo) || len(snap2.Layer) != len(snap.Layer) {
				t.Fatal("snapshot round trip changed entry counts")
			}
		}
	})
}
