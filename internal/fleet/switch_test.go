package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

// The router's batch path as a frame switch, against nodes that are not
// daemons at all: stubNode answers /v1/evalbatch by looking each request
// item's bytes up in a table of canned answer items, through the same
// walkers the router uses, so it allocates next to nothing and the counts
// below are the router's own.

// stubFault is a way for a stub to answer wrongly.
type stubFault int32

const (
	faultNone      stubFault = iota
	faultTruncated           // a frame one byte short
	faultMiscount            // a well-formed frame with one item too few
	faultJSON                // the right answer in the wrong codec
	faultDoomed              // garbage, but only for a sub-batch holding the doomed item
)

type stubNode struct {
	answers map[string][]byte // request item bytes -> answer item bytes
	doomed  []byte            // a request item's bytes; see faultDoomed
	fault   atomic.Int32
	served  atomic.Int64 // sub-batches answered
	items   atomic.Int64 // items they carried
	// What the router sent last, for the edge tests.
	contentType, accept atomic.Value
}

func (s *stubNode) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	in, out := eisvc.GetBuffer(), eisvc.GetBuffer()
	defer eisvc.PutBuffer(in)
	defer eisvc.PutBuffer(out)
	if _, err := in.ReadFrom(r.Body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.contentType.Store(r.Header.Get("Content-Type"))
	s.accept.Store(r.Header.Get("Accept"))
	frame := in.Bytes()
	if r.URL.Path == eisvc.EvalEndpoint.Path { // a single eval: any answer will do
		w.Header()["Content-Type"] = []string{eisvc.BinaryContentType}
		_, _ = w.Write(frame)
		return
	}
	items, err := eisvc.WalkBatchEvalRequest(frame)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.served.Add(1)
	s.items.Add(int64(len(items)))
	fault := stubFault(s.fault.Load())
	n := len(items)
	if fault == faultMiscount {
		n--
	}
	eisvc.BeginBatchEvalResponse(out, n)
	for _, it := range items[:n] {
		raw := frame[it.Off:it.End]
		if fault == faultDoomed && bytes.Equal(raw, s.doomed) {
			out.Reset()
			out.WriteString("not a frame")
			break
		}
		out.Write(s.answers[string(raw)])
	}
	body := out.Bytes()
	contentType := eisvc.BinaryContentType
	switch fault {
	case faultTruncated:
		body = body[:len(body)-1]
	case faultJSON:
		resp, err := eisvc.DecodeBatchEvalResponse(body)
		if err != nil {
			panic(err)
		}
		body, _ = json.Marshal(resp)
		contentType = "application/json"
	}
	w.Header()["Content-Type"] = []string{contentType}
	w.Header()["Content-Length"] = []string{fmt.Sprint(len(body))}
	_, _ = w.Write(body)
}

// byHost dispatches the router's forwards to the stub standing in for the
// node whose URL they name.
type byHost map[string]http.RoundTripper

func (m byHost) RoundTrip(req *http.Request) (*http.Response, error) {
	return m[req.URL.Host].RoundTrip(req)
}

// switchFixture is a 3-node fleet whose router forwards to stubs, and a
// 256-item batch over three stacks with its expected answer.
type switchFixture struct {
	f     *Fleet
	rt    *Router
	stubs map[string]*stubNode // by node ID
	reqs  []eisvc.EvalRequest
	frame []byte                // reqs as a binary batch frame
	want  []eisvc.BatchEvalItem // want[i] answers reqs[i]
}

const switchItems = 256

func newSwitchFixture(t *testing.T) *switchFixture {
	t.Helper()
	fx := &switchFixture{f: startFleet(t, Config{Nodes: 3}), stubs: map[string]*stubNode{}}
	fx.rt = NewRouter(fx.f)
	for i := 0; i < switchItems; i++ {
		fx.reqs = append(fx.reqs, eisvc.EvalRequest{
			Interface: fmt.Sprintf("svc_%d", i%3), Method: "price", Mode: "expected",
			Args: eisvc.Args{core.Int(i), core.Record(map[string]core.Value{"pixels": core.Int(i)})},
		})
		fx.want = append(fx.want, eisvc.BatchEvalItem{
			Interface: fx.reqs[i].Interface, Version: 1, Method: "price", Mode: "expected", Status: http.StatusOK,
			Dist: &eisvc.WireDist{Support: []float64{float64(i)}, Probs: []float64{1}, Mean: float64(i)}, Cached: true,
		})
	}
	var frame bytes.Buffer
	if err := eisvc.EncodeBatchEvalRequest(&frame, &eisvc.BatchEvalRequest{Requests: fx.reqs}); err != nil {
		t.Fatal(err)
	}
	fx.frame = frame.Bytes()
	items, err := eisvc.WalkBatchEvalRequest(fx.frame)
	if err != nil {
		t.Fatal(err)
	}
	answers := map[string][]byte{}
	for i, it := range items {
		var one bytes.Buffer
		if err := eisvc.EncodeBatchEvalResponse(&one, &eisvc.BatchEvalResponse{Results: fx.want[i : i+1]}); err != nil {
			t.Fatal(err)
		}
		answers[string(fx.frame[it.Off:it.End])] = one.Bytes()[eisvc.BatchHeaderLen:]
	}
	hosts := byHost{}
	for _, n := range fx.f.Nodes() {
		stub := &stubNode{answers: answers, doomed: fx.frame[items[7].Off:items[7].End]}
		fx.stubs[n.ID] = stub
		hosts[n.URL[len("http://"):]] = eisvc.NewLoopbackTransport(stub)
	}
	fx.rt.fwd = &http.Client{Transport: hosts}
	return fx
}

// post sends body to the router's batch route in process.
func (fx *switchFixture) post(contentType, accept string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, eisvc.EvalBatchEndpoint.Path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	fx.rt.ServeHTTP(rec, req)
	return rec
}

// wantFrame is the binary answer frame of the given items.
func wantFrame(t *testing.T, items []eisvc.BatchEvalItem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := eisvc.EncodeBatchEvalResponse(&buf, &eisvc.BatchEvalResponse{Results: items}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (fx *switchFixture) setFault(fault stubFault, ids ...string) {
	for id, s := range fx.stubs {
		s.fault.Store(int32(faultNone))
		for _, want := range ids {
			if id == want {
				s.fault.Store(int32(fault))
			}
		}
	}
}

// TestRouterSwitchesFramesCountedNotTimed: a 256-item binary batch through
// the router costs a fixed number of allocations, not a number per item.
// Measured here — router, three in-process stub round trips and the test's
// own request and recorder together — 207 allocations a batch, 0.8 an
// item, of which handleEvalBatch itself makes about 33. The router that
// decoded the batch to hash it, re-encoded three sub-batches, decoded
// three answers and encoded the stitched one made about 21 per item
// (5,400 a batch); one Decode or Encode of a batch type on this path costs
// at least 3 per item and fails the bound.
func TestRouterSwitchesFramesCountedNotTimed(t *testing.T) {
	fx := newSwitchFixture(t)
	want := wantFrame(t, fx.want)
	run := func() {
		rec := fx.post(eisvc.BinaryContentType, eisvc.BinaryContentType, fx.frame)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("status %d, %d answer bytes (want %d): stitched frame differs from the nodes' items in request order",
				rec.Code, rec.Body.Len(), len(want))
		}
	}
	run()
	var split []int64
	var total int64
	for _, n := range fx.f.Nodes() {
		split = append(split, fx.stubs[n.ID].items.Load())
		total += fx.stubs[n.ID].items.Load()
	}
	if total != switchItems || len(split) != 3 || split[0] == 0 || split[1] == 0 || split[2] == 0 {
		t.Fatalf("batch split %v over the nodes, want every node to get a share of %d", split, switchItems)
	}
	allocs := testing.AllocsPerRun(20, run)
	t.Logf("%d-item batch: %.0f allocations in router + stubs + harness, split %v", switchItems, allocs, split)
	if allocs > switchItems && !raceEnabled {
		t.Errorf("routing a %d-item batch made %.0f allocations, want <= 1 per item", switchItems, allocs)
	}
	if c := fx.rt.Counters(); c.Failovers != 0 || c.Exhausted != 0 {
		t.Errorf("healthy stubs, yet %+v", c)
	}

	// The single-eval route reads its placement off the frame too: a
	// request whose argument is a list of 512 strings costs a decode at
	// least 512 string copies, and the route nothing per element.
	var big eisvc.EvalRequest
	big.Interface, big.Method, big.Mode = "svc_0", "price", "expected"
	list := make([]core.Value, 512)
	for i := range list {
		list[i] = core.Str(fmt.Sprint("tag", i))
	}
	big.Args = eisvc.Args{core.List(list...)}
	var single bytes.Buffer
	if err := eisvc.EncodeEvalRequest(&single, &big); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(20, func() {
		req := httptest.NewRequest(http.MethodPost, eisvc.EvalEndpoint.Path, bytes.NewReader(single.Bytes()))
		req.Header.Set("Content-Type", eisvc.BinaryContentType)
		rec := httptest.NewRecorder()
		fx.rt.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), single.Bytes()) {
			t.Fatalf("single eval: status %d, %d bytes relayed of %d", rec.Code, rec.Body.Len(), single.Len())
		}
	})
	t.Logf("single eval with a 512-string argument: %.0f allocations", allocs)
	if allocs > 256 && !raceEnabled {
		t.Errorf("routing one eval with a 512-element argument made %.0f allocations: the route decoded it", allocs)
	}
}

// TestRouterSkipsMalformedAnswers: a node whose answer is cut short,
// carries the wrong number of items, or is in the wrong codec is skipped
// like a dead one, and what the client gets is the next candidate's
// answer, bit for bit.
func TestRouterSkipsMalformedAnswers(t *testing.T) {
	fx := newSwitchFixture(t)
	want := wantFrame(t, fx.want)
	victim := fx.f.Nodes()[0].ID
	for _, fault := range []stubFault{faultTruncated, faultMiscount, faultJSON} {
		fx.setFault(fault, victim)
		before := fx.rt.Counters()
		rec := fx.post(eisvc.BinaryContentType, eisvc.BinaryContentType, fx.frame)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("fault %d on %s: status %d, answer differs from the healthy nodes'", fault, victim, rec.Code)
		}
		after := fx.rt.Counters()
		if after.Failovers == before.Failovers || after.Exhausted != before.Exhausted {
			t.Errorf("fault %d on %s: counters went %+v -> %+v, want a failover and nothing exhausted", fault, victim, before, after)
		}
	}
}

// TestRouterFailedGroupIs503PerItem: when no candidate answers a
// sub-batch, each of its items is a 503 naming its own interface and
// method — read off the request's bytes, the only items the router ever
// encodes — and the other sub-batches' items arrive intact.
func TestRouterFailedGroupIs503PerItem(t *testing.T) {
	fx := newSwitchFixture(t)
	var all []string
	for id := range fx.stubs {
		all = append(all, id)
	}
	fx.setFault(faultDoomed, all...)
	items, err := eisvc.WalkBatchEvalRequest(fx.frame)
	if err != nil {
		t.Fatal(err)
	}
	// The doomed item's group is every item preferring the same node.
	prefOf := func(i int) string {
		owners := fx.f.OwnersOf(string(items[i].Interface))
		return owners[items[i].Spread%uint64(len(owners))]
	}
	rec := fx.post(eisvc.BinaryContentType, eisvc.BinaryContentType, fx.frame)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	got, err := eisvc.DecodeBatchEvalResponse(rec.Body.Bytes())
	if err != nil || len(got.Results) != switchItems {
		t.Fatalf("%d results, err %v", len(got.Results), err)
	}
	failed := 0
	for i, it := range got.Results {
		if prefOf(i) != prefOf(7) {
			if !bytes.Equal(wantFrame(t, got.Results[i:i+1]), wantFrame(t, fx.want[i:i+1])) {
				t.Fatalf("item %d, of a group that was served, is not its node's answer: %+v", i, it)
			}
			continue
		}
		failed++
		if it.Status != http.StatusServiceUnavailable || it.Error == "" || it.Dist != nil ||
			it.Interface != fx.reqs[i].Interface || it.Method != fx.reqs[i].Method {
			t.Fatalf("item %d, of the group nobody could serve: %+v", i, it)
		}
	}
	if failed == 0 || failed == switchItems {
		t.Fatalf("%d of %d items failed, want exactly the doomed item's group", failed, switchItems)
	}
	if c := fx.rt.Counters(); c.Exhausted != 1 || c.Failovers != 2 {
		t.Errorf("counters %+v, want one exhausted group after two failovers", c)
	}
}

// TestRouterBatchEdges: JSON lives at the router's edge. A JSON batch is
// framed on the way in and takes the one path — the nodes see binary both
// ways whatever the caller speaks — and a caller that does not accept
// binary gets the stitched frame as JSON. Bad bodies are the router's own
// 400 in either codec.
func TestRouterBatchEdges(t *testing.T) {
	fx := newSwitchFixture(t)
	var jsonBody bytes.Buffer
	if err := json.NewEncoder(&jsonBody).Encode(&eisvc.BatchEvalRequest{Requests: fx.reqs}); err != nil {
		t.Fatal(err)
	}
	want := wantFrame(t, fx.want)
	for _, c := range []struct{ contentType, accept string }{
		{"application/json", ""},
		{"application/json", eisvc.BinaryContentType},
		{eisvc.BinaryContentType, "application/json"},
		{eisvc.BinaryContentType, eisvc.BinaryContentType + ", application/json"},
	} {
		body := fx.frame
		if c.contentType == "application/json" {
			body = jsonBody.Bytes()
		}
		rec := fx.post(c.contentType, c.accept, body)
		how := c.contentType + " -> " + c.accept
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", how, rec.Code, rec.Body)
		}
		answered := rec.Header().Get("Content-Type")
		if eisvc.IsBinaryContentType(answered) != (c.accept != "" && c.accept != "application/json") {
			t.Errorf("%s: answered in %q", how, answered)
		}
		resp, err := eisvc.EvalBatchEndpoint.Response.Decode(answered, rec.Body.Bytes())
		if err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		if !bytes.Equal(wantFrame(t, resp.Results), want) {
			t.Errorf("%s: answer differs from the nodes' items in request order", how)
		}
		for id, s := range fx.stubs {
			if ct, _ := s.contentType.Load().(string); ct != eisvc.BinaryContentType {
				t.Errorf("%s: node %s was sent %q", how, id, ct)
			}
			if a, _ := s.accept.Load().(string); a != eisvc.BinaryContentType && a != c.accept {
				t.Errorf("%s: node %s was asked for %q", how, id, a)
			}
		}
	}

	var empty bytes.Buffer
	eisvc.BeginBatchEvalRequest(&empty, 0)
	for _, c := range []struct {
		what, contentType string
		body              []byte
	}{
		{"empty binary batch", eisvc.BinaryContentType, empty.Bytes()},
		{"empty JSON batch", "application/json", []byte(`{"requests":[]}`)},
		{"cut binary batch", eisvc.BinaryContentType, fx.frame[:len(fx.frame)-3]},
		{"JSON batch with an unknown field", "application/json", []byte(`{"requests":[{"interface":"svc_0","methd":"price"}]}`)},
	} {
		served := fx.stubs[fx.f.Nodes()[0].ID].served.Load()
		if rec := fx.post(c.contentType, "", c.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want the router's 400", c.what, rec.Code)
		}
		if fx.stubs[fx.f.Nodes()[0].ID].served.Load() != served {
			t.Errorf("%s reached a node", c.what)
		}
	}
}

// batchItemsBy reads how many batch items each node has been sent.
func batchItemsBy(rt *Router) map[string]uint64 {
	sent := map[string]uint64{}
	for id, st := range rt.Stats(context.Background()).PerNode {
		sent[id] = st.BatchItems
	}
	return sent
}

// TestOnePlacementAloneOrBatched: there is one definition of where a
// request goes. The same 48 requests sent one by one — in binary, then in
// JSON — and as one batch — in binary, then in JSON — reach the same nodes:
// each single names the node its JSON twin names, and each batch hands
// every node exactly as many items as it served singles.
func TestOnePlacementAloneOrBatched(t *testing.T) {
	f := probeFleet(t, Config{Nodes: 3})
	rt, jsonC := startTestRouter(t, f)
	if _, err := jsonC.Register(probeEIL()); err != nil {
		t.Fatal(err)
	}
	binC := eisvc.NewClient(jsonC.Base()).TuneTransport(eisvc.TransportTuning{})
	binC.ID, binC.Binary = "fleet-bin", true

	const n = 48
	reqs := probeReqs(binC, 5000, n)
	singles := map[string]uint64{}
	for i, req := range reqs {
		args := []core.Value{core.Num(float64(5000 + i))}
		_, bresp, err := binC.Eval(req.Interface, req.Method, args, core.Expected())
		if err != nil {
			t.Fatal(err)
		}
		_, jresp, err := jsonC.Eval(req.Interface, req.Method, args, core.Expected())
		if err != nil {
			t.Fatal(err)
		}
		if bresp.Node == "" || bresp.Node != jresp.Node {
			t.Errorf("request %d: binary form served by %q, JSON form by %q", i, bresp.Node, jresp.Node)
		}
		singles[bresp.Node]++
	}
	if len(singles) < 2 {
		t.Fatalf("singles all landed on %v: the trace does not spread", singles)
	}
	for _, c := range []*eisvc.Client{binC, jsonC} {
		before := batchItemsBy(rt)
		items, err := c.EvalBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if it.Status != http.StatusOK || !it.Cached {
				t.Fatalf("batch item %d (binary %v): status %d cached %v: a single warmed this key on the node the batch should pick", i, c.Binary, it.Status, it.Cached)
			}
		}
		after := batchItemsBy(rt)
		for _, node := range f.Nodes() {
			if got := after[node.ID] - before[node.ID]; got != singles[node.ID] {
				t.Errorf("batch (binary %v) sent %s %d items; it served %d of the singles", c.Binary, node.ID, got, singles[node.ID])
			}
		}
	}
}

// TestBatchesSurviveKillMidFlight: a node killed while batches are in
// flight costs latency, not answers — every item of every batch comes
// back 200 and bit-identical to a one-node reference.
func TestBatchesSurviveKillMidFlight(t *testing.T) {
	f := probeFleet(t, Config{Nodes: 3})
	_, c := startTestRouter(t, f)
	c.Binary = true
	c.Retry = eisvc.DefaultRetryPolicy()
	if _, err := c.Register(probeEIL()); err != nil {
		t.Fatal(err)
	}
	const batches, size, clients = 24, 64, 3
	reqs := probeReqs(c, 9000, size)
	want := singleNodeReference(t, reqs)
	victim := f.OwnersOf(probeStack(0))[0]

	var started atomic.Int64
	var killOnce sync.Once
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := 0; b < batches/clients; b++ {
				if started.Add(1) == batches/3 {
					killOnce.Do(func() {
						if err := f.KillNode(victim); err != nil {
							t.Errorf("kill %s: %v", victim, err)
						}
					})
				}
				items, err := c.EvalBatch(reqs)
				if err != nil {
					t.Errorf("batch lost to the kill: %v", err)
					return
				}
				if len(items) != size {
					t.Errorf("%d items, want %d", len(items), size)
					return
				}
				for i, it := range items {
					if it.Status != http.StatusOK || it.Dist == nil {
						t.Errorf("item %d: %d %s", i, it.Status, it.Error)
						return
					}
					if !bytes.Equal(distBits(t, it.Dist), distBits(t, want[i].Dist)) {
						t.Errorf("item %d differs from the one-node reference", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := f.Node(victim); n.Live() {
		t.Fatal("victim was never killed; trace too short")
	}
}

// distBits is a distribution's binary encoding: equal bytes, equal bits.
func distBits(t *testing.T, w *eisvc.WireDist) []byte {
	return wantFrame(t, []eisvc.BatchEvalItem{{Dist: w}})
}

// TestAggregateLeavesProcessCountersPerNode: the compiler's counters
// describe the process. Three nodes in one process each report the
// process's figure, so an aggregate that summed specializations tripled
// it; like its three siblings it now stays out of the aggregate and is
// read per node.
func TestAggregateLeavesProcessCountersPerNode(t *testing.T) {
	f := probeFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	if _, err := c.Register(probeEIL()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvalBatch(probeReqs(c, 100, 24)); err != nil {
		t.Fatal(err)
	}
	fs := rt.Stats(context.Background())
	process := core.ReadProgramStats()
	if process.Specializations == 0 || process.CompiledEvals == 0 {
		t.Fatalf("nothing compiled: %+v", process)
	}
	agg := fs.Aggregate
	if agg.Specializations != 0 || agg.CompiledEvals != 0 || agg.CompiledPrograms != 0 || agg.CompileFallbacks != 0 {
		t.Errorf("aggregate carries process counters: specializations %d, compiled_evals %d, compiled_programs %d, compile_fallbacks %d",
			agg.Specializations, agg.CompiledEvals, agg.CompiledPrograms, agg.CompileFallbacks)
	}
	if len(fs.PerNode) != 3 {
		t.Fatalf("%d nodes reported", len(fs.PerNode))
	}
	for id, n := range fs.PerNode {
		if n.Specializations != process.Specializations {
			t.Errorf("%s reports %d specializations, the process made %d", id, n.Specializations, process.Specializations)
		}
	}
}

// TestReadAnswerBounds: a node's answer is read to its declared length, or
// to the cap when it declares none, and never past MaxBodyBytes.
func TestReadAnswerBounds(t *testing.T) {
	answer := func(status int, length int64, body string) *http.Response {
		return &http.Response{StatusCode: status, ContentLength: length, Body: io.NopCloser(strings.NewReader(body))}
	}
	for _, c := range []struct {
		what string
		resp *http.Response
		want string
		ok   bool
	}{
		{"declared length", answer(200, 5, "frame"), "frame", true},
		{"no declared length", answer(200, -1, "frame"), "frame", true},
		{"shorter than declared", answer(200, 9, "frame"), "", false},
		{"declared past the cap", answer(200, eisvc.MaxBodyBytes+1, "frame"), "", false},
		{"not a 2xx", answer(503, 5, "frame"), "", false},
	} {
		got, err := readAnswer(c.resp)
		if (err == nil) != c.ok || (c.ok && string(got) != c.want) {
			t.Errorf("%s: read %q, err %v", c.what, got, err)
		}
	}
}
