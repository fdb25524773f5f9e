package eisvc

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// Tests of the request path's two single forms: arguments are core.Values
// from the wire to the engine, and a memo entry keeps the WireDist every
// hit is sent in.

// The codec_test.go request as the parent commit wrote it, in both codecs.
const (
	parentRequestJSON = `{"interface":"mlservice","method":"handle_request","args":[3,"gpu",true,null,[1.5,"x"],{"a":[false],"b":2}],"mode":"monte-carlo","samples":4096,"seed":-7,"enum_limit":512,"parallelism":8,"fixed":{"cpu.freq":2.1,"gpu.mem":"hbm"},"deadline_ms":250}`
	parentRequestHex  = "4549420101090000006d6c736572766963650e00000068616e646c655f726571756573740b0000006d6f6e74652d6361726c6f0010000000000000f9ffffffffffffff00020000000000000800000000000000fa000000000000000600000003000000000000084004030000006770750200050200000003000000000000f83f04010000007806020000000100000061050100000001010000006203000000000000004002000000080000006370752e6672657103cdcccccccccc0040070000006770752e6d656d040300000068626d"
	// A batch whose second item needs JSON's HTML escaping and its float
	// formats: what a Marshaler returns is re-compacted by the encoder.
	parentBatchJSON = `{"requests":[` + parentRequestJSON + `,{"interface":"a\u003cb\u003e\u0026","method":"m","args":["\u003c\u0026\u003e ",1e+21,1e-7,0,123456789],"mode":"expected"}]}` + "\n"
)

// TestEvalRequestOneFormBothCodecs: JSON text → EvalRequest → JSON text is
// byte-identical, a request built in Go, decoded from JSON and decoded from
// binary are one value, and all three encode to the frame the parent
// commit's encoder wrote.
func TestEvalRequestOneFormBothCodecs(t *testing.T) {
	wantFrame, err := hex.DecodeString(parentRequestHex)
	if err != nil {
		t.Fatal(err)
	}
	var fromJSON EvalRequest
	if err := decodeStrictJSON([]byte(parentRequestJSON), &fromJSON); err != nil {
		t.Fatal(err)
	}
	fromBinary, err := DecodeEvalRequest(wantFrame)
	if err != nil {
		t.Fatal(err)
	}
	for name, req := range map[string]*EvalRequest{"built": testEvalRequest(), "from JSON": &fromJSON, "from binary": fromBinary} {
		text, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if string(text) != parentRequestJSON {
			t.Errorf("%s request as JSON:\n got  %s\n want %s", name, text, parentRequestJSON)
		}
		var frame bytes.Buffer
		if err := EncodeEvalRequest(&frame, req); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame.Bytes(), wantFrame) {
			t.Errorf("%s request as a frame:\n got  %x\n want %x", name, frame.Bytes(), wantFrame)
		}
	}

	var batch BatchEvalRequest
	if err := decodeStrictJSON([]byte(parentBatchJSON), &batch); err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	if err := json.NewEncoder(&text).Encode(&batch); err != nil {
		t.Fatal(err)
	}
	if text.String() != parentBatchJSON {
		t.Errorf("batch as JSON:\n got  %s want %s", text.String(), parentBatchJSON)
	}

	// Absent, null and empty arguments are all "none", and none is omitted.
	for _, body := range []string{`{"interface":"s","method":"m","mode":"fixed"}`,
		`{"interface":"s","method":"m","args":null,"mode":"fixed","fixed":null}`,
		`{"interface":"s","method":"m","args":[],"mode":"fixed","fixed":{}}`} {
		var req EvalRequest
		if err := decodeStrictJSON([]byte(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if text, _ := json.Marshal(&req); req.Args != nil || req.Fixed != nil || string(text) != `{"interface":"s","method":"m","mode":"fixed"}` {
			t.Errorf("%s decoded to args %v, fixed %v, re-encoded %s", body, req.Args, req.Fixed, text)
		}
	}
	// Strictness survives the custom decoders: an unknown field is refused
	// wherever it sits beside the value-typed ones.
	if err := decodeStrictJSON([]byte(`{"interface":"s","args":[1],"argz":[2]}`), new(EvalRequest)); err == nil {
		t.Error("unknown field beside args accepted")
	}
}

// wideDist is a distribution the size of the benchmark's widest answers.
func wideDist(t *testing.T) energy.Dist {
	t.Helper()
	xs, ps := make([]float64, 323), make([]float64, 323)
	for i := range xs {
		xs[i], ps[i] = 0.001*float64(i*i+1), 1.0/323
	}
	d, err := energy.FromSorted(xs, ps)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestToWireIsACopyTheMemoIsNot: the exported conversion hands out vectors
// of its own; the memo's wire form is the Dist's storage.
func TestToWireIsACopyTheMemoIsNot(t *testing.T) {
	d := wideDist(t)
	xs, ps := d.View()
	w := ToWire(d)
	if &w.Support[0] == &xs[0] || &w.Probs[0] == &ps[0] {
		t.Fatal("ToWire aliases the distribution's own vectors")
	}
	m := NewMemo(4)
	m.Put("k", d)
	shared := wireOf(m, "k")
	if &shared.Support[0] != &xs[0] || &shared.Probs[0] != &ps[0] {
		t.Fatal("the memo's wire form copied the vectors")
	}
	if again := wireOf(m, "k"); again != shared {
		t.Fatal("two hits on one entry got two wire forms")
	}
	if !sameWire(shared, &w) {
		t.Fatalf("the memo's wire form %+v differs from ToWire's %+v", shared, w)
	}
	if wireOf(m, "absent") != nil {
		t.Fatal("a miss returned a wire form")
	}
}

// sameWire compares two wire distributions bit for bit.
func sameWire(a, b *WireDist) bool {
	stats := func(w *WireDist) []float64 { return []float64{w.Mean, w.Std, w.Min, w.Max, w.P99} }
	return bitsEqual(a.Support, b.Support) && bitsEqual(a.Probs, b.Probs) && bitsEqual(stats(a), stats(b))
}

// TestMemoSharesWireForm serves one warm key to 8 concurrent batches and 8
// concurrent single evals in each codec — 32 responses encoding from one
// *WireDist at once. Run under -race it is the check that nothing on the
// hit path writes through the shared form; everywhere it checks that every
// answer is the first one's bytes and, decoded, the bits of ToWire(dist).
func TestMemoSharesWireForm(t *testing.T) {
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	_, version, _ := srv.Registry().Get("ml_webservice")
	args := []core.Value{reqArg()}
	d := wideDist(t)
	srv.memo.Put(memoKey("ml_webservice", version, "handle", args, core.Expected()), d)
	want := ToWire(d)

	client := &http.Client{Transport: NewLoopbackTransport(srv)}
	single := NewClient("").EvalRequestFor("ml_webservice", "handle", args, core.Expected())
	batch := BatchEvalRequest{Requests: []EvalRequest{single, single, single, single}}
	type route struct {
		path, ctype string
		body        []byte
		dists       func([]byte) ([]*WireDist, error)
	}
	var routes []route
	for _, ctype := range []string{BinaryContentType, jsonContentType} {
		var one, many bytes.Buffer
		if err := EvalEndpoint.Request.Encode(&one, ctype, &single); err != nil {
			t.Fatal(err)
		}
		if err := EvalBatchEndpoint.Request.Encode(&many, ctype, &batch); err != nil {
			t.Fatal(err)
		}
		routes = append(routes,
			route{EvalEndpoint.Path, ctype, one.Bytes(), func(b []byte) ([]*WireDist, error) {
				resp, err := EvalEndpoint.Response.Decode(ctype, b)
				if err != nil || !resp.Cached {
					return nil, fmt.Errorf("cached %v, err %v", resp != nil && resp.Cached, err)
				}
				return []*WireDist{&resp.Dist}, nil
			}},
			route{EvalBatchEndpoint.Path, ctype, many.Bytes(), func(b []byte) ([]*WireDist, error) {
				resp, err := EvalBatchEndpoint.Response.Decode(ctype, b)
				if err != nil {
					return nil, err
				}
				var out []*WireDist
				for _, it := range resp.Results {
					if it.Status != http.StatusOK || !it.Cached || it.Dist == nil {
						return nil, fmt.Errorf("item %+v", it)
					}
					out = append(out, it.Dist)
				}
				return out, nil
			}})
	}

	const callers = 8
	answers := make([][][]byte, len(routes))
	var wg sync.WaitGroup
	for r := range routes {
		answers[r] = make([][]byte, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rt := routes[r]
				req, err := http.NewRequest(http.MethodPost, "http://loopback"+rt.path, bytes.NewReader(rt.body))
				if err != nil {
					t.Error(err)
					return
				}
				req.Header.Set("Content-Type", rt.ctype)
				req.Header.Set("Accept", rt.ctype)
				resp, err := client.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				if answers[r][c], err = io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("%s %s: status %d, err %v", rt.path, rt.ctype, resp.StatusCode, err)
				}
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for r, rt := range routes {
		for c, body := range answers[r] {
			if !bytes.Equal(body, answers[r][0]) {
				t.Fatalf("%s %s: caller %d's answer differs from caller 0's", rt.path, rt.ctype, c)
			}
		}
		dists, err := rt.dists(answers[r][0])
		if err != nil {
			t.Fatalf("%s %s: %v", rt.path, rt.ctype, err)
		}
		for _, got := range dists {
			if !sameWire(got, &want) {
				t.Fatalf("%s %s: answered %+v, want the bits of ToWire(dist)", rt.path, rt.ctype, got)
			}
		}
	}
	if n := atomic.LoadUint64(&srv.counts.Evaluations); n != 0 {
		t.Fatalf("%d evaluations on an all-warm test", n)
	}
}

// TestLedgerClientCap: the client map is keyed by a header the caller
// picks, so it stops growing at maxLedgerClients ids; what the later ids
// ask for lands on the overflow row and the books still balance — client
// rows, interface rows and the node's attributed total all account for
// every request.
func TestLedgerClientCap(t *testing.T) {
	const ids = 2000
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	c := NewClient("http://loopback")
	c.SetTransport(NewLoopbackTransport(srv))
	args := []core.Value{reqArg()}
	for i := 0; i < ids; i++ {
		c.ID = fmt.Sprintf("tenant-%04d", i)
		if _, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, core.Expected()); err != nil {
			t.Fatal(err)
		}
	}
	c.ID = "tenant-0000" // a known id keeps its own row after the cap
	if _, _, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, core.Expected()); err != nil {
		t.Fatal(err)
	}
	st, err := c.StatsCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Clients) != maxLedgerClients+1 {
		t.Fatalf("%d client rows after %d ids, want %d", len(st.Clients), ids, maxLedgerClients+1)
	}
	if got := st.Clients[overflowClient].Requests; got != ids-maxLedgerClients {
		t.Errorf("overflow row holds %d requests, want %d", got, ids-maxLedgerClients)
	}
	if got := st.Clients["tenant-0000"].Requests; got != 2 {
		t.Errorf("tenant-0000 holds %d requests, want 2", got)
	}
	var clients, ifaces LedgerEntry
	for _, e := range st.Clients {
		clients.Requests += e.Requests
		clients.MemoHits += e.MemoHits
		clients.MeanJ += e.MeanJ
	}
	for _, e := range st.ByIface {
		ifaces.Requests += e.Requests
		ifaces.MemoHits += e.MemoHits
		ifaces.MeanJ += e.MeanJ
	}
	if clients.Requests != ids+1 || ifaces.Requests != ids+1 || clients.MemoHits != ids || ifaces.MemoHits != ids {
		t.Errorf("clients sum to %d requests / %d hits, interfaces to %d / %d, want %d / %d",
			clients.Requests, clients.MemoHits, ifaces.Requests, ifaces.MemoHits, ids+1, ids)
	}
	// One answer asked for ids+1 times: the joules agree up to the order
	// the rows were added in.
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Abs(b) }
	if !close(clients.MeanJ, ifaces.MeanJ) || !close(st.AttribJ, ifaces.MeanJ) || ifaces.MeanJ <= 0 {
		t.Errorf("clients sum to %v J, interfaces to %v J, attributed %v J", clients.MeanJ, ifaces.MeanJ, st.AttribJ)
	}
}

// TestSnapshotWrittenByParent: testdata/parent_pr22.eisnap was saved by the
// commit before memo entries kept a wire form — 13 memo entries of one
// compiled stack in three modes (no layer entries: the sharded layer cache
// does not keep their order across a load, then or now). It loads whole,
// saves back to the same bytes, and its entries answer requests as memo
// hits with the bits a local evaluation gives.
func TestSnapshotWrittenByParent(t *testing.T) {
	const file = "testdata/parent_pr22.eisnap"
	srv := NewServer(Config{NodeID: "node-parent"})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil { // as the parent did: versions are part of the keys
		t.Fatal(err)
	}
	memoN, layerN, err := srv.LoadCacheSnapshot(file)
	if err != nil || memoN != 13 || layerN != 0 {
		t.Fatalf("loaded %d memo / %d layer entries, err %v; want 13 / 0", memoN, layerN, err)
	}
	resaved := filepath.Join(t.TempDir(), "resaved.eisnap")
	if err := srv.SaveCacheSnapshot(resaved); err != nil {
		t.Fatal(err)
	}
	want, _ := os.ReadFile(file)
	got, _ := os.ReadFile(resaved)
	if !bytes.Equal(got, want) {
		t.Fatalf("re-saved snapshot differs from the file it was loaded from (%d vs %d bytes)", len(got), len(want))
	}

	c := NewClient("http://loopback")
	c.SetTransport(NewLoopbackTransport(srv))
	arg := func(px float64) []core.Value {
		return []core.Value{core.Record(map[string]core.Value{"pixels": core.Num(px), "zeros": core.Num(16)})}
	}
	ref := localIface(t)
	ask := func(args []core.Value, opts core.EvalOptions) {
		t.Helper()
		d, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", args, opts)
		if err != nil || !resp.Cached {
			t.Fatalf("%v %v: cached %v, err %v", opts.Mode, args, resp != nil && resp.Cached, err)
		}
		local, err := ref.Eval("handle", args, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameDist(t, "restored answer", d, local)
	}
	for i := 0; i < 6; i++ {
		ask(arg(float64(1000+i)), core.Expected())
		ask(arg(float64(2000+i)), core.WorstCase())
	}
	ask(arg(4096), core.MonteCarlo(512, 7))
	if n := atomic.LoadUint64(&srv.counts.Evaluations); n != 0 {
		t.Fatalf("%d evaluations: the restored entries did not serve", n)
	}
}
