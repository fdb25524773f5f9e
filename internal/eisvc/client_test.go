package eisvc

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"energyclarity/internal/core"
)

// TestClientBoundsAnswers: no daemon or router can make a client allocate
// without limit. An answer one byte past MaxBodyBytes is an error whether
// it arrives chunked (read to the cap, refused past it) or under a
// Content-Length that claims it (refused before a byte is read, so the
// call allocates nothing near its size); an answer exactly at the cap is
// an answer.
func TestClientBoundsAnswers(t *testing.T) {
	chunk := bytes.Repeat([]byte{'x'}, 64<<10)
	chunked := func(n int) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			for ; n > 0; n -= len(chunk) {
				if _, err := w.Write(chunk[:min(n, len(chunk))]); err != nil {
					return
				}
			}
		}
	}
	lying := func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(MaxBodyBytes+1))
		_, _ = w.Write([]byte("{}"))
	}
	for _, c := range []struct {
		name     string
		handler  http.HandlerFunc
		ok       bool
		maxAlloc uint64 // bytes the call may allocate, server and client together; 0: unchecked
	}{
		{"chunked, at the cap", chunked(MaxBodyBytes), true, 0},
		{"chunked, past the cap", chunked(MaxBodyBytes + 1), false, 0},
		{"declared past the cap", lying, false, 1 << 20},
	} {
		ts := httptest.NewServer(c.handler)
		client := NewClient(ts.URL)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		buf, _, err := client.do(context.Background(), http.MethodGet, "/", nil, Hop{}, true)
		runtime.ReadMemStats(&after)
		switch {
		case c.ok && (err != nil || buf.Len() != MaxBodyBytes):
			t.Errorf("%s: err %v", c.name, err)
		case !c.ok && err == nil:
			t.Errorf("%s: read %d bytes without error", c.name, buf.Len())
		}
		if grew := after.TotalAlloc - before.TotalAlloc; c.maxAlloc > 0 && grew > c.maxAlloc {
			t.Errorf("%s: the call allocated %d bytes, want <= %d", c.name, grew, c.maxAlloc)
		}
		PutBuffer(buf)
		ts.Close()
	}
}

// answering is a transport that answers every request with body, its
// length declared or not.
type answering struct {
	body     []byte
	declared bool
}

func (a *answering) RoundTrip(req *http.Request) (*http.Response, error) {
	n := int64(-1)
	if a.declared {
		n = int64(len(a.body))
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, ContentLength: n,
		Body: io.NopCloser(bytes.NewReader(a.body)), Request: req}, nil
}

// TestClientBoundCostsNothing: the bound costs no allocation — an answer
// of undeclared length (a routed single eval arrives chunked) is read for
// what one of declared length costs.
func TestClientBoundCostsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	body := bytes.Repeat([]byte{'x'}, 3000)
	allocs := map[bool]float64{}
	for _, declared := range []bool{true, false} {
		c := NewClient("http://answering")
		c.SetTransport(&answering{body: body, declared: declared})
		allocs[declared] = testing.AllocsPerRun(50, func() {
			buf, _, err := c.do(context.Background(), http.MethodGet, "/", nil, Hop{}, true)
			if err != nil || buf.Len() != len(body) {
				t.Fatalf("declared %v: %v", declared, err)
			}
			PutBuffer(buf)
		})
	}
	if allocs[false] > allocs[true] {
		t.Errorf("an undeclared answer cost %v allocations, a declared one %v", allocs[false], allocs[true])
	}
}

// stalled is a transport that hangs until the request's context ends and
// then fails in its own words, as a torn-down connection does.
type stalled chan struct{}

func (s stalled) RoundTrip(req *http.Request) (*http.Response, error) {
	s <- struct{}{}
	<-req.Context().Done()
	return nil, errors.New("stalled: connection torn down")
}

// TestClientContextError: when the caller's context ends, the caller gets
// its error — context.Canceled or context.DeadlineExceeded — not the
// attempt's, whether the request was sent once or raced against a hedge,
// and however the transport phrased its own failure.
func TestClientContextError(t *testing.T) {
	for _, hedge := range []time.Duration{0, time.Millisecond} {
		for _, want := range []error{context.Canceled, context.DeadlineExceeded} {
			started := make(stalled, 2)
			c := NewClient("http://stalled")
			c.SetTransport(started)
			c.Hedge, c.Retry = hedge, DefaultRetryPolicy()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			if want == context.Canceled {
				ctx, cancel = context.WithCancel(context.Background())
				go func() {
					<-started
					cancel()
				}()
			}
			_, _, err := c.do(ctx, http.MethodGet, "/", nil, Hop{}, true)
			if !errors.Is(err, want) {
				t.Errorf("hedge %v: got %v, want %v", hedge, err, want)
			}
			cancel()
		}
	}
}

// TestEvalBatchLeavesRequestsAlone: EvalBatchCtx stamps deadlines on what
// it sends, not on the caller's slice. Sent twice, the same slice carries
// the same deadlines both times — the client's stamp for the unset item,
// its own for the set ones, a negative one too — and is unchanged
// afterwards; two goroutines may send one slice at once (run under -race).
func TestEvalBatchLeavesRequestsAlone(t *testing.T) {
	var mu sync.Mutex
	var sent [][]int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body bytes.Buffer
		if !ReadBody(w, r, &body) {
			return
		}
		req, err := EvalBatchEndpoint.Request.Decode(r.Header.Get("Content-Type"), body.Bytes())
		if err != nil {
			t.Error(err)
			return
		}
		var got []int
		for _, it := range req.Requests {
			got = append(got, it.DeadlineMs)
		}
		mu.Lock()
		sent = append(sent, got)
		mu.Unlock()
		writeAnswer(t, EvalBatchEndpoint, w, r, &BatchEvalResponse{Results: make([]BatchEvalItem, len(req.Requests))})
	}))
	defer ts.Close()
	c := NewClient(ts.URL)
	c.Deadline = 250 * time.Millisecond
	reqs := []EvalRequest{{DeadlineMs: -1}, {}, {DeadlineMs: 40}}
	want := []int{-1, 250, 40}
	send := func() {
		if _, err := c.EvalBatchCtx(context.Background(), reqs); err != nil {
			t.Error(err)
		}
	}
	send()
	send()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			send()
		}()
	}
	wg.Wait()
	if len(sent) != 4 {
		t.Fatalf("handler saw %d batches, want 4", len(sent))
	}
	for i, got := range sent {
		if !slices.Equal(got, want) {
			t.Errorf("batch %d sent deadlines %v, want %v", i, got, want)
		}
	}
	if got := []int{reqs[0].DeadlineMs, reqs[1].DeadlineMs, reqs[2].DeadlineMs}; !slices.Equal(got, []int{-1, 0, 40}) {
		t.Errorf("caller's deadlines became %v", got)
	}
}

// TestNewClientSpeaksBinary pins the client's default codec: a NewClient
// client sends and asks for BinaryContentType on every endpoint-table call
// and JSON on the rest; with Binary false, every route is JSON.
func TestNewClientSpeaksBinary(t *testing.T) {
	srv := NewServer(Config{})
	type sent struct{ contentType, accept string }
	var mu sync.Mutex
	seen := map[string]sent{}
	c := NewClient("http://loopback")
	c.SetTransport(NewLoopbackTransport(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = sent{r.Header.Get("Content-Type"), r.Header.Get("Accept")}
		mu.Unlock()
		srv.ServeHTTP(w, r)
	})))
	ctx := context.Background()
	args := []core.Value{reqArg()}
	for _, binary := range []bool{true, false} {
		if !binary { // the first pass keeps NewClient's default
			c.Binary = false
		}
		clear(seen)
		if _, err := c.RegisterCtx(ctx, testEIL); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.EvalCtx(ctx, "ml_webservice", "handle", args, core.Expected()); err != nil {
			t.Fatal(err)
		}
		if _, err := c.EvalBatchCtx(ctx, []EvalRequest{c.EvalRequestFor("ml_webservice", "handle", args, core.Expected())}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.CacheLookupCtx(ctx, []string{"no such key"}, false); err != nil {
			t.Fatal(err)
		}
		if _, err := c.StatsCtx(ctx); err != nil {
			t.Fatal(err)
		}
		bin, js := sent{BinaryContentType, BinaryContentType}, sent{jsonContentType, ""}
		want := map[string]sent{"/v1/register": js, "/v1/eval": js, "/v1/evalbatch": js, "/v1/cachelookup": js, "/v1/stats": {}}
		if binary {
			want["/v1/eval"], want["/v1/evalbatch"], want["/v1/cachelookup"] = bin, bin, bin
		}
		for path, w := range want {
			if got, ok := seen[path]; !ok || got != w {
				t.Errorf("Binary %v: %s sent Content-Type %q, Accept %q; want %q, %q", binary, path, got.contentType, got.accept, w.contentType, w.accept)
			}
		}
	}
}

// frameCounter is a transport that walks every batch frame it carries and
// keeps its items, and answers the frame numbered fail (from 1) with a 500
// of its own instead of sending it on.
type frameCounter struct {
	inner  http.RoundTripper
	fail   int
	frames [][]FrameItem
}

func (f *frameCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	items, err := WalkBatchEvalRequest(nil, body)
	if err != nil {
		return nil, err
	}
	if f.frames = append(f.frames, items); len(f.frames) == f.fail {
		return &http.Response{StatusCode: http.StatusInternalServerError, Status: "500 Internal Server Error",
			Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(nil)), Request: r}, nil
	}
	r = r.Clone(r.Context())
	r.Body = io.NopCloser(bytes.NewReader(body))
	return f.inner.RoundTrip(r)
}

// TestEvalBatchSplitsFrames: a call of more than maxBatch items goes in
// order as frames of at most maxBatch items, and its answers come back in
// order, each bit for bit the answer a single eval gets. 2,500 items over
// 100 distinct requests make 3 frames of 1,024, 1,024 and 452 items, and
// refs and held prefixes work within each: every frame carries each of its
// distinct items once and repeats as refs; the first frame's items are
// evaluated, the second's answered from the memo and so held, and the
// third's go held and come back held. A frame that fails fails the call.
func TestEvalBatchSplitsFrames(t *testing.T) {
	const n, distinct = 2500, 100
	srv := NewServer(Config{})
	if _, err := srv.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	fc := &frameCounter{inner: NewLoopbackTransport(srv)}
	c := NewClient("http://loopback")
	c.SetTransport(fc)
	args := make([][]core.Value, distinct)
	reqs := make([]EvalRequest, n)
	for i := range reqs {
		if i < distinct {
			args[i] = []core.Value{core.Record(map[string]core.Value{"pixels": core.Num(float64(1024 + i)), "zeros": core.Num(0)})}
		}
		reqs[i] = c.EvalRequestFor("ml_webservice", "handle", args[i%distinct], core.Expected())
	}
	got, err := c.EvalBatchCtx(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	if len(fc.frames) != 3 {
		t.Fatalf("%d items went as %d frames, want 3", n, len(fc.frames))
	}
	for k, items := range fc.frames {
		full, held := 0, 0
		for _, it := range items {
			if it.Ref == 0 {
				full++
			}
			if it.Held {
				held++
			}
		}
		wantHeld := 0
		if k == 2 {
			wantHeld = distinct
		}
		if want := min(maxBatch, n-k*maxBatch); len(items) != want || full != distinct || held != wantHeld {
			t.Errorf("frame %d: %d items, %d of them full and %d held; want %d, %d and %d", k+1, len(items), full, held, want, distinct, wantHeld)
		}
	}
	if h := c.Counters().Held; h != distinct {
		t.Errorf("%d answers came back held, want the third frame's %d", h, distinct)
	}

	single := NewClient("http://twin")
	twin := NewServer(Config{})
	if _, err := twin.Registry().RegisterSource(testEIL); err != nil {
		t.Fatal(err)
	}
	single.SetTransport(NewLoopbackTransport(twin))
	want := make([]*WireDist, distinct)
	for i := range want {
		_, resp, err := single.EvalCtx(context.Background(), "ml_webservice", "handle", args[i], core.Expected())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = &resp.Dist
	}
	if len(got) != n {
		t.Fatalf("%d answers for %d items", len(got), n)
	}
	for i := range got {
		if got[i].Status != http.StatusOK || !sameWire(got[i].Dist, want[i%distinct]) {
			t.Fatalf("item %d: status %d, %+v; a single eval answers %+v", i, got[i].Status, got[i].Dist, want[i%distinct])
		}
	}

	fc.frames, fc.fail = nil, 2
	if got, err := c.EvalBatchCtx(context.Background(), reqs); err == nil || got != nil {
		t.Fatalf("a failed second frame: %d answers, err %v; want none and an error", len(got), err)
	}
	if len(fc.frames) != 2 {
		t.Errorf("the call went on after its second frame failed: %d frames", len(fc.frames))
	}
}
