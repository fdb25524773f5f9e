package eisvc

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"testing"
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
		buf, _, err := client.do(context.Background(), http.MethodGet, "/", nil, jsonContentType, "", true)
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
			buf, _, err := c.do(context.Background(), http.MethodGet, "/", nil, jsonContentType, "", true)
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
