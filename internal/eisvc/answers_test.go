package eisvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"energyclarity/internal/core"
)

// failEIL adds a method whose evaluation fails: its body divides by zero.
const failEIL = `
interface failing {
  func boom(n) { return 1mJ * (10 / (n - n)) }
}
`

// pinnedAnswers is the FNV-64a of every exchange answerScript makes —
// status, Content-Type and body — as the node answered when it built each
// answer as a Go value and encoded it in the codec Accept asked for. A
// node that writes its answer frames itself, and transcodes them for a
// JSON caller, must answer byte for byte the same.
var pinnedAnswers = map[string]uint64{
	"cold eval, binary":                              0x553eb0693486fb3f,
	"cold eval, binary in, JSON out":                 0x176d97698e8f466a,
	"cold eval, JSON in, binary out":                 0xa1e16796bd6a3974,
	"cold eval, JSON":                                0x176d97698e8f466a,
	"warm eval, binary":                              0xa1e16796bd6a3974,
	"warm eval, binary in, JSON out":                 0x176d97698e8f466a,
	"warm eval, JSON in, binary out":                 0xa1e16796bd6a3974,
	"warm eval, JSON":                                0x176d97698e8f466a,
	"monte carlo eval, binary":                       0x34b457b67eb8f4b3,
	"monte carlo eval, binary in, JSON out":          0x97fb2378b328af13,
	"monte carlo eval, JSON in, binary out":          0x15c0115211297024,
	"monte carlo eval, JSON":                         0x97fb2378b328af13,
	"pinned eval, binary":                            0xaceb4bbafc9d6959,
	"pinned eval, binary in, JSON out":               0xbf021c276894cc37,
	"pinned eval, JSON in, binary out":               0x6117dde3cd95b74a,
	"pinned eval, JSON":                              0xbf021c276894cc37,
	"failing eval, binary":                           0x13e1165e5a5394dc,
	"failing eval, binary in, JSON out":              0x13e1165e5a5394dc,
	"failing eval, JSON in, binary out":              0x13e1165e5a5394dc,
	"failing eval, JSON":                             0x13e1165e5a5394dc,
	"unknown stack eval, binary":                     0x39f09645e1c5d0c8,
	"unknown stack eval, binary in, JSON out":        0x39f09645e1c5d0c8,
	"unknown stack eval, JSON in, binary out":        0x39f09645e1c5d0c8,
	"unknown stack eval, JSON":                       0x39f09645e1c5d0c8,
	"batch without refs, binary":                     0x6583f5dc62c301e1,
	"batch without refs, binary in, JSON out":        0xfec9b1ce042ea060,
	"batch without refs, JSON in, binary out":        0xa75b43448cd887e2,
	"batch without refs, JSON":                       0xfec9b1ce042ea060,
	"batch with refs, binary":                        0x3458ee78a9b502c5,
	"batch with refs, binary in, JSON out":           0xd59cdc3f719204be,
	"batch with refs, JSON in, binary out":           0x7d9a1eb4334ac7d6,
	"batch with refs, JSON":                          0xd59cdc3f719204be,
	"tags":                                           0x495305ef1cdd9482,
	"held batch, binary":                             0x9e4dba4b29a2f679,
	"held batch, binary in, JSON out":                0xc147a819382dcea0,
	"held batch, JSON in, binary out":                0x860732cad6377a47,
	"held batch, JSON":                               0xc147a819382dcea0,
	"held batch with refs, binary":                   0xdf0478fb6260e1a0,
	"held batch with refs, binary in, JSON out":      0x9e9df0d36f73f8f4,
	"held batch with refs, JSON in, binary out":      0xec374b6992992325,
	"held batch with refs, JSON":                     0x9e9df0d36f73f8f4,
	"memo probe, summary false, binary":              0x9abbeb68f7e72976,
	"memo probe, summary false, binary in, JSON out": 0x80a15291d0313f54,
	"memo probe, summary false, JSON in, binary out": 0x9abbeb68f7e72976,
	"memo probe, summary false, JSON":                0x80a15291d0313f54,
	"memo probe, summary true, binary":               0x4e6622889a549739,
	"memo probe, summary true, binary in, JSON out":  0x7657c811152af951,
	"memo probe, summary true, JSON in, binary out":  0x4e6622889a549739,
	"memo probe, summary true, JSON":                 0x7657c811152af951,
}

// answerScript drives one node through single evals, batches with refs,
// key duplicates, held items, rejected items and failing evaluations, and
// memo probes, each in both codecs, and returns every answer by name.
func answerScript(t *testing.T) (names []string, answers map[string][]byte) {
	t.Helper()
	srv := NewServer(Config{NodeID: "node-1"})
	for _, src := range []string{testEIL, failEIL} {
		if _, err := srv.Registry().RegisterSource(src); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	answers = map[string][]byte{}
	send := func(name, path string, binaryIn, binaryOut bool, body []byte) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", jsonContentType)
		req.Header.Set("Accept", jsonContentType)
		if binaryIn {
			req.Header.Set("Content-Type", BinaryContentType)
		}
		if binaryOut {
			req.Header.Set("Accept", BinaryContentType)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		answers[name] = fmt.Appendf(nil, "%d %s\n%s", resp.StatusCode, resp.Header.Get("Content-Type"), got)
		return got
	}
	// each sends v in both codecs, asking for both: four exchanges.
	each := func(name, path string, v any, encode func(*bytes.Buffer) error) {
		t.Helper()
		var frame bytes.Buffer
		if err := encode(&frame); err != nil {
			t.Fatal(err)
		}
		text, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		send(name+", binary", path, true, true, frame.Bytes())
		send(name+", binary in, JSON out", path, true, false, frame.Bytes())
		send(name+", JSON in, binary out", path, false, true, text)
		send(name+", JSON", path, false, false, text)
	}
	eval := func(name string, r EvalRequest) {
		each(name, EvalEndpoint.Path, r, func(b *bytes.Buffer) error { return EncodeEvalRequest(b, &r) })
	}
	batch := func(name string, r BatchEvalRequest) {
		each(name, EvalBatchEndpoint.Path, r, func(b *bytes.Buffer) error { return EncodeBatchEvalRequest(b, &r) })
	}

	arg := func(pixels int) []core.Value {
		return []core.Value{core.Record(map[string]core.Value{"pixels": core.Num(float64(pixels)), "zeros": core.Num(0)})}
	}
	handle := func(pixels int, opts core.EvalOptions) EvalRequest {
		return EvalRequest{Interface: "ml_webservice", Method: "handle", Args: arg(pixels), Mode: opts.Mode.String(),
			Samples: opts.Samples, Seed: opts.Seed, Fixed: opts.Fixed}
	}
	boom := EvalRequest{Interface: "failing", Method: "boom", Args: []core.Value{core.Num(3)}, Mode: "expected"}
	unknown := EvalRequest{Interface: "no_such_stack", Method: "handle", Args: arg(1), Mode: "expected"}
	badMode := handle(1, core.Expected())
	badMode.Mode = "sideways"
	noMethod := handle(1, core.Expected())
	noMethod.Method = "no_such_method"
	later := handle(10, core.Expected()) // the same key as handle(10, ...) in other bytes
	later.DeadlineMs = 250

	eval("cold eval", handle(7, core.Expected()))
	eval("warm eval", handle(7, core.Expected()))
	eval("monte carlo eval", handle(8, core.MonteCarlo(256, 3)))
	eval("pinned eval", handle(9, core.FixedAssignment(map[string]core.Value{"request_hit": core.Bool(false), "local_cache_hit": core.Bool(true)})))
	eval("failing eval", boom)
	eval("unknown stack eval", unknown)

	mixed := []EvalRequest{
		handle(10, core.Expected()), handle(7, core.Expected()), unknown, badMode,
		boom, noMethod, later, handle(11, core.WorstCase()),
	}
	batch("batch without refs", BatchEvalRequest{Requests: mixed})
	withRefs := append(mixed[:len(mixed):len(mixed)], mixed...)
	withRefs = append(withRefs, handle(12, core.BestCase()), unknown, later, boom)
	batch("batch with refs", BatchEvalRequest{Requests: withRefs})

	// Held items: two naming their answer's tag (one a key duplicate of
	// an item sent in full), one a stale tag, one an item that fails.
	var frame bytes.Buffer
	warm := BatchEvalRequest{Requests: []EvalRequest{handle(7, core.Expected()), handle(10, core.Expected())}}
	if err := EncodeBatchEvalRequest(&frame, &warm); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBatchEvalResponse(send("tags", EvalBatchEndpoint.Path, true, true, frame.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	tag7, tag10 := DistTag(got.Results[0].Dist), DistTag(got.Results[1].Dist)
	held := BatchEvalRequest{
		Requests: []EvalRequest{handle(7, core.Expected()), later, handle(10, core.Expected()), handle(11, core.WorstCase()), boom, handle(7, core.Expected())},
		held:     []uint64{tag7, tag10, 0, tag7, tag7, 0},
	}
	batch("held batch", held)
	held.Requests = append(held.Requests, handle(13, core.Expected()), unknown, unknown)
	held.held = append(held.held, 0, tag10, 0)
	batch("held batch with refs", held)

	_, version, _ := srv.Registry().Get("ml_webservice")
	keys := []string{"missing-key",
		memoKey("ml_webservice", version, "handle", arg(7), core.Expected()),
		memoKey("ml_webservice", version, "handle", arg(12), core.BestCase())}
	for _, summary := range []bool{false, true} {
		r := CacheLookupRequest{Keys: keys, Summary: summary}
		each(fmt.Sprintf("memo probe, summary %v", summary), CacheLookupEndpoint.Path, r,
			func(b *bytes.Buffer) error { return CacheLookupEndpoint.Request.Encode(b, BinaryContentType, &r) })
	}
	return names, answers
}

// writeAnswer answers resp as a node does: in its binary frame, which
// WriteFrame sends as it is or transcoded per Accept.
func writeAnswer[Req, Resp any](t *testing.T, ep *Endpoint[Req, Resp], w http.ResponseWriter, r *http.Request, resp *Resp) {
	var frame bytes.Buffer
	if err := ep.Response.Encode(&frame, BinaryContentType, resp); err != nil {
		t.Error(err)
	}
	ep.WriteFrame(w, r, &frame)
}

// TestAnswersUnchanged holds every answer of answerScript to its pin.
func TestAnswersUnchanged(t *testing.T) {
	names, answers := answerScript(t)
	for _, name := range names {
		h := fnv.New64a()
		h.Write(answers[name])
		if got, want := h.Sum64(), pinnedAnswers[name]; got != want {
			t.Errorf("%q: digest %#x, want %#x\n%q", name, got, want, answers[name])
		}
	}
}
