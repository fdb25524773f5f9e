package eisvc

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"energyclarity/internal/faultsim"
)

// closeCounter is a request body that counts its Close calls.
type closeCounter struct {
	io.Reader
	closed int
}

func (b *closeCounter) Close() error {
	b.closed++
	return nil
}

// TestRoundTripClosesBody holds both in-tree transports to net/http's
// RoundTripper contract: the request body is closed on every path, errors
// included — the loopback after its handler ran, and faultsim on each
// fault it injects as well as when it forwards.
func TestRoundTripClosesBody(t *testing.T) {
	loop := NewLoopbackTransport(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Write([]byte("ok"))
	}))
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	paths := []struct {
		name string
		rt   http.RoundTripper
		ctx  context.Context
	}{
		{"loopback", loop, context.Background()},
		{"faultsim forwarded", faultsim.NewTransport(faultsim.Plan{}, loop), context.Background()},
		{"faultsim latency then forwarded", faultsim.NewTransport(faultsim.Plan{PLatency: 1, Latency: time.Millisecond}, loop), context.Background()},
		{"faultsim 503", faultsim.NewTransport(faultsim.Plan{P5xx: 1}, loop), context.Background()},
		{"faultsim hang", faultsim.NewTransport(faultsim.Plan{PHang: 1}, loop), cancelled},
		{"faultsim latency cancelled", faultsim.NewTransport(faultsim.Plan{PLatency: 1, Latency: time.Hour}, loop), cancelled},
		{"faultsim pre-forward reset", faultsim.NewTransport(faultsim.Plan{PResetPre: 1}, loop), context.Background()},
		{"faultsim post-forward reset", faultsim.NewTransport(faultsim.Plan{PResetPost: 1}, loop), context.Background()},
	}
	for _, p := range paths {
		body := &closeCounter{Reader: strings.NewReader(`{"interface":"x"}`)}
		req, err := http.NewRequestWithContext(p.ctx, http.MethodPost, "http://loopback/v1/eval", body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := p.rt.RoundTrip(req)
		if err == nil {
			resp.Body.Close()
		}
		if body.closed == 0 {
			t.Errorf("%s: request body not closed (err %v)", p.name, err)
		}
	}
	// A nil body is fine on every path.
	for _, p := range paths {
		req, err := http.NewRequestWithContext(p.ctx, http.MethodGet, "http://loopback/v1/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := p.rt.RoundTrip(req); err == nil {
			resp.Body.Close()
		}
	}
}
