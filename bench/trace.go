package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer's epoch; Parent is the span that caused
// this one (0 for a root) and Request the id all spans of one wire
// request share.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
}

// tracer keeps spans in memory until the run ends. Every span is recorded
// from the benchmark's own files, around its calls into a layer.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) record(id int64, name string, start, end time.Time, parent, request int64) {
	s := span{ID: id, Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)), Parent: parent, Request: request}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanHeader carries "<request>.<parent span>" from the transport span to
// the handler span on the other side of the socket.
const spanHeader = "X-Bench-Span"

type spanKey struct{}

// spanRef is the request span a client call runs under.
type spanRef struct{ request, id int64 }

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, ref)
}

// tracedTransport records the "transport" span: everything between the
// client handing the request to net/http and getting the response back.
type tracedTransport struct {
	next http.RoundTripper
	tr   *tracer
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return t.next.RoundTrip(req)
	}
	id := t.tr.newID()
	// RoundTrip must not modify the caller's request.
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(ref.request, 10)+"."+strconv.FormatInt(id, 10))
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.tr.record(id, "transport", start, time.Now(), ref.id, ref.request)
	return resp, err
}

// handler wraps a front handler (the router, or the single node) in a
// span whose parent is the transport span named by the header. Requests
// without the header (warm-up, stats) are not recorded.
func (t *tracer) handler(name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		request, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.record(t.newID(), name, start, time.Now(), parent, request)
	})
}

func parseSpanHeader(v string) (request, parent int64, ok bool) {
	a, b, found := strings.Cut(v, ".")
	if !found {
		return 0, 0, false
	}
	request, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return request, parent, err1 == nil && err2 == nil
}

// selfTimes returns, per span name, the mean duration and the mean self
// time (duration minus the part its children cover) in nanoseconds.
// Children of one span never overlap here — each layer makes one call
// into the next — so covered time is the sum of child durations.
func selfTimes(spans []span) (mean, self map[string]float64) {
	child := map[int64]int64{}
	for _, s := range spans {
		child[s.Parent] += s.End - s.Start
	}
	sum, selfSum, n := map[string]float64{}, map[string]float64{}, map[string]float64{}
	for _, s := range spans {
		d := s.End - s.Start
		sum[s.Name] += float64(d)
		selfSum[s.Name] += float64(d - child[s.ID])
		n[s.Name]++
	}
	mean, self = map[string]float64{}, map[string]float64{}
	for name, k := range n {
		mean[name] = sum[name] / k
		self[name] = selfSum[name] / k
	}
	return mean, self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
