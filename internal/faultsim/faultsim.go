// Package faultsim injects deterministic faults between an eisvc client
// and its daemon, so resilience behavior — retry, backoff, hedging,
// draining — can be exercised and measured without flaky-network test
// infrastructure. The injector is an http.RoundTripper wrapper: wire it
// into a client with Client.SetTransport and every request rolls against
// the Plan's probabilities using a seeded RNG, making a fault sequence
// reproducible run to run.
//
// Faults come in four flavors, mirroring what real deployments see:
//
//   - latency: the request is delayed before forwarding (slow network);
//   - reset: the connection fails — either before the request reaches the
//     server (pre-forward: the server never saw it) or after the response
//     was produced (post-forward: the server did the work but the answer
//     was lost — the case that makes idempotency matter);
//   - hang: the request blocks until the caller's context expires,
//     modeling a stuck server (exercises the client's per-attempt timeout);
//   - 5xx burst: a run of synthetic 503 answers with a Retry-After header,
//     modeling an overloaded or draining server (exercises the client's
//     shed-retry path without touching the real daemon).
package faultsim

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/counters"
)

// ErrInjectedReset is the transport error surfaced by injected resets.
var ErrInjectedReset = errors.New("faultsim: injected connection reset")

// Plan is the fault profile. Probabilities are per-request and
// independent; a zero Plan injects nothing.
type Plan struct {
	// Seed makes the fault sequence deterministic (0 is a valid seed).
	Seed int64

	// PLatency is the probability of delaying a request by Latency.
	PLatency float64
	Latency  time.Duration

	// PResetPre / PResetPost are the probabilities of failing the request
	// with ErrInjectedReset before forwarding (server never saw it) and
	// after forwarding (server evaluated; answer lost).
	PResetPre  float64
	PResetPost float64

	// PHang is the probability of blocking the request until its context
	// expires (then failing with the context's error).
	PHang float64

	// P5xx is the probability of starting a burst of Burst synthetic 503
	// answers (default burst length 1) carrying RetryAfter as an integer
	// Retry-After header when positive.
	P5xx       float64
	Burst      int
	RetryAfter time.Duration
}

// Counters are how many faults the transport injected (a counters set).
type Counters struct {
	Requests  uint64 // requests seen
	Latencies uint64
	ResetsPre uint64
	ResetsPos uint64
	Hangs     uint64
	Synth5xx  uint64 // synthetic 503 answers
	Forwarded uint64 // requests that reached the real transport
}

// Transport injects Plan faults around an inner http.RoundTripper.
type Transport struct {
	// First, to be 64-bit aligned for the atomic functions on any platform.
	counts Counters

	plan  Plan
	inner http.RoundTripper

	mu        sync.Mutex
	rng       *rand.Rand
	burstLeft int
}

// NewTransport wraps inner (nil means http.DefaultTransport) with the
// plan's fault injection.
func NewTransport(plan Plan, inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		plan:  plan,
		inner: inner,
		rng:   rand.New(rand.NewSource(plan.Seed)),
	}
}

// Counters returns a snapshot of the injected-fault counts.
func (t *Transport) Counters() (snap Counters) {
	counters.Add(&snap, &t.counts)
	return snap
}

// roll draws the fate of one request under the RNG lock, so concurrent
// requests see a deterministic (if interleaving-dependent) fault stream.
type fate struct {
	latency  bool
	resetPre bool
	resetPos bool
	hang     bool
	synth    bool
}

func (t *Transport) roll() fate {
	t.mu.Lock()
	defer t.mu.Unlock()
	var f fate
	if t.burstLeft > 0 {
		t.burstLeft--
		f.synth = true
		return f
	}
	if t.plan.P5xx > 0 && t.rng.Float64() < t.plan.P5xx {
		burst := t.plan.Burst
		if burst < 1 {
			burst = 1
		}
		t.burstLeft = burst - 1
		f.synth = true
		return f
	}
	f.latency = t.plan.PLatency > 0 && t.rng.Float64() < t.plan.PLatency
	f.resetPre = t.plan.PResetPre > 0 && t.rng.Float64() < t.plan.PResetPre
	f.resetPos = t.plan.PResetPost > 0 && t.rng.Float64() < t.plan.PResetPost
	f.hang = t.plan.PHang > 0 && t.rng.Float64() < t.plan.PHang
	return f
}

// synthetic503 builds the injected shed answer.
func (t *Transport) synthetic503(req *http.Request) *http.Response {
	body := `{"error":"faultsim: injected 503"}`
	resp := &http.Response{
		Status:        "503 Service Unavailable",
		StatusCode:    http.StatusServiceUnavailable,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        make(http.Header),
		Body:          io.NopCloser(bytes.NewReader([]byte(body))),
		ContentLength: int64(len(body)),
		Request:       req,
	}
	resp.Header.Set("Content-Type", "application/json")
	if t.plan.RetryAfter > 0 {
		secs := int(t.plan.RetryAfter / time.Second)
		resp.Header.Set("Retry-After", strconv.Itoa(secs))
	}
	return resp
}

// RoundTrip implements http.RoundTripper. As the contract asks, it closes
// the request body on every path: the inner transport does once forwarded,
// closeBody on the paths a fault ends before that.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	atomic.AddUint64(&t.counts.Requests, 1)
	f := t.roll()
	if f.synth {
		atomic.AddUint64(&t.counts.Synth5xx, 1)
		closeBody(req)
		return t.synthetic503(req), nil
	}
	if f.hang {
		atomic.AddUint64(&t.counts.Hangs, 1)
		closeBody(req)
		<-req.Context().Done()
		return nil, req.Context().Err()
	}
	if f.latency {
		atomic.AddUint64(&t.counts.Latencies, 1)
		select {
		case <-time.After(t.plan.Latency):
		case <-req.Context().Done():
			closeBody(req)
			return nil, req.Context().Err()
		}
	}
	if f.resetPre {
		atomic.AddUint64(&t.counts.ResetsPre, 1)
		closeBody(req)
		return nil, fmt.Errorf("faultsim: %s %s (pre-forward): %w", req.Method, req.URL.Path, ErrInjectedReset)
	}
	atomic.AddUint64(&t.counts.Forwarded, 1)
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if f.resetPos {
		// The server did the work; the answer is lost on the way back.
		atomic.AddUint64(&t.counts.ResetsPos, 1)
		resp.Body.Close()
		return nil, fmt.Errorf("faultsim: %s %s (post-forward): %w", req.Method, req.URL.Path, ErrInjectedReset)
	}
	return resp, nil
}

func closeBody(req *http.Request) {
	if req.Body != nil {
		req.Body.Close()
	}
}

// FlakyListener wraps a net.Listener to model a network partition — the
// listener-level counterpart of PResetPre, for tests that want faults
// below the HTTP layer. While Partition(true) is in effect, every
// already-accepted connection is severed and every new accept is dropped
// on the floor, so the node behind the listener is unreachable — in-flight
// requests fail with connection resets, exactly what a cut network looks
// like from the client side. Partition(false) heals it.
type FlakyListener struct {
	net.Listener

	severed atomic.Uint64

	mu          sync.Mutex
	partitioned bool
	open        map[*trackedConn]struct{}
}

// trackedConn removes itself from the listener's open set on Close, so a
// partition can sever exactly the connections still alive.
type trackedConn struct {
	net.Conn
	l    *FlakyListener
	once sync.Once
}

func (c *trackedConn) Close() error {
	c.once.Do(func() {
		c.l.mu.Lock()
		delete(c.l.open, c)
		c.l.mu.Unlock()
	})
	return c.Conn.Close()
}

// Accept implements net.Listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	for {
		conn, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		if l.partitioned {
			l.mu.Unlock()
			conn.Close()
			continue
		}
		if l.open == nil {
			l.open = map[*trackedConn]struct{}{}
		}
		tc := &trackedConn{Conn: conn, l: l}
		l.open[tc] = struct{}{}
		l.mu.Unlock()
		return tc, nil
	}
}

// Partition cuts (true) or heals (false) the network in front of the
// listener. Cutting severs every open connection and makes subsequent
// accepts drop silently; the listener itself stays alive, so healing
// restores service without rebinding the port. Idempotent.
func (l *FlakyListener) Partition(cut bool) {
	l.mu.Lock()
	l.partitioned = cut
	var victims []*trackedConn
	if cut {
		victims = make([]*trackedConn, 0, len(l.open))
		for c := range l.open {
			victims = append(victims, c)
		}
	}
	l.mu.Unlock()
	// Close outside the lock: Close re-enters to unregister.
	for _, c := range victims {
		l.severed.Add(1)
		c.Close()
	}
}

// Partitioned reports whether the listener is currently cut off.
func (l *FlakyListener) Partitioned() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.partitioned
}

// Severed returns how many established connections partitions cut.
func (l *FlakyListener) Severed() uint64 { return l.severed.Load() }
