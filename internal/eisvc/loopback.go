package eisvc

import (
	"bytes"
	"io"
	"net/http"
)

// LoopbackTransport is an http.RoundTripper that dispatches requests
// directly to an in-process handler, skipping sockets, TCP, and the
// net/http server loop entirely. When the daemon lives in the same
// process as its client — the fleet's in-process nodes, benchmarks, the
// embedded single-binary mode — the kernel round trip is pure overhead:
// a memoized answer that costs ~70 µs over loopback TCP costs a few
// microseconds through this transport, with the exact same handler
// code, negotiation, and headers on both sides.
//
// Use it by installing it as a Client's transport:
//
//	c := eisvc.NewClient("http://loopback")
//	c.SetTransport(eisvc.NewLoopbackTransport(srv))
//
// The host part of the base URL is ignored; only the path routes.
type LoopbackTransport struct {
	handler http.Handler
}

// NewLoopbackTransport returns a transport that serves every request
// from handler (typically an *eisvc.Server).
func NewLoopbackTransport(handler http.Handler) *LoopbackTransport {
	return &LoopbackTransport{handler: handler}
}

// loopbackRecorder is the minimal http.ResponseWriter the in-process
// dispatch needs: status, headers, and a body buffer.
type loopbackRecorder struct {
	status int
	hdr    http.Header
	body   bytes.Buffer
}

func (r *loopbackRecorder) Header() http.Header { return r.hdr }

func (r *loopbackRecorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *loopbackRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

// RoundTrip invokes the handler synchronously and packages its output as
// an *http.Response. The request context is honored by the handler the
// same way a served request's would be.
func (t *LoopbackTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := &loopbackRecorder{hdr: make(http.Header)}
	// A shallow copy: a handler does not modify its request, so the
	// caller's header set can be shared with it as it is over a socket.
	inner := *req
	if inner.Body == nil {
		inner.Body = http.NoBody
	}
	inner.RequestURI = inner.URL.RequestURI()
	t.handler.ServeHTTP(rec, &inner)
	if rec.status == 0 {
		rec.status = http.StatusOK
	}
	return &http.Response{
		StatusCode:    rec.status,
		Status:        http.StatusText(rec.status),
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        rec.hdr,
		Body:          io.NopCloser(&rec.body),
		ContentLength: int64(rec.body.Len()),
		Request:       req,
	}, nil
}
