package eisvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/energy"
)

// APIError is a non-2xx daemon answer. Shed requests surface as
// StatusTooManyRequests (queue full) or StatusServiceUnavailable (queue
// deadline, or a draining daemon); callers distinguish them by Status.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the parsed Retry-After header, when the server sent
	// one (it did so because it wants the client to back off at least
	// this long before retrying).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("eisvc: %d %s: %s", e.Status, http.StatusText(e.Status), e.Message)
}

// Shed reports whether the daemon refused the request under load.
func (e *APIError) Shed() bool {
	return e.Status == http.StatusTooManyRequests || e.Status == http.StatusServiceUnavailable
}

// DefaultTimeout bounds one HTTP attempt when Client.Timeout is zero: a
// hung daemon must never block a caller forever.
const DefaultTimeout = 30 * time.Second

// NoDeadline is the explicit "do not stamp a queue-wait deadline on this
// request" sentinel for EvalRequest.DeadlineMs: a negative value tells the
// client to leave the item alone (the server default applies) instead of
// overwriting it with Client.Deadline, which is what DeadlineMs == 0 gets.
const NoDeadline = -1

// Resilience headers: clients report their retry attempt number and hedge
// status so the daemon's /v1/stats can aggregate fleet-wide retry/hedge
// behavior without client-side scraping.
const (
	headerClient  = "X-Eisvc-Client"
	headerAttempt = "X-Eisvc-Attempt"
	headerHedge   = "X-Eisvc-Hedge"
)

// Client is the typed Go client for the daemon. Every method has a
// context-taking variant (EvalCtx, StatsCtx, ...); the plain spellings use
// context.Background(). All requests carry a per-attempt HTTP timeout, so
// a stalled daemon surfaces as an error instead of a hang.
type Client struct {
	base string
	http *http.Client
	// ID names this client in the daemon's energy ledger (the
	// X-Eisvc-Client header); empty means "anonymous".
	ID string
	// Deadline, when non-zero, is sent as every eval's queue-wait bound.
	Deadline time.Duration
	// Timeout bounds each HTTP attempt (default DefaultTimeout; negative
	// disables the bound — the caller's ctx is then the only limit).
	Timeout time.Duration
	// Retry, when non-nil, retries idempotent requests (evals and reads —
	// never Register/Rebind) per the policy. Shed answers honor the
	// server's Retry-After.
	Retry *RetryPolicy
	// Hedge, when positive, races a second identical request after this
	// delay for idempotent calls still in flight — the classic
	// tail-latency hedge. The first answer wins; the loser is cancelled.
	Hedge time.Duration
	// Binary switches the endpoint-table calls (Eval, EvalBatch,
	// CacheLookup, Optimize) to the length-prefixed binary codec: the
	// request body is sent as BinaryContentType and the same is offered in
	// Accept. Requires a daemon that speaks the codec; everything else
	// (register, stats, drift, ...) stays on the JSON debug path regardless.
	Binary bool

	retries   atomic.Uint64
	hedges    atomic.Uint64
	hedgeWins atomic.Uint64
	shed      atomic.Uint64
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:7757").
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// SetTransport replaces the underlying HTTP transport — the hook the
// fault-injection harness (internal/faultsim) uses to wrap the client.
func (c *Client) SetTransport(rt http.RoundTripper) { c.http.Transport = rt }

// Base returns the daemon base URL this client targets.
func (c *Client) Base() string { return c.base }

// DefaultMaxIdleConnsPerHost sizes the per-daemon idle connection pool of
// a tuned transport. The stock http.DefaultTransport keeps only 2 idle
// conns per host, so fleet fan-out (a router or peer-forwarding node
// talking to the same daemon from tens of goroutines) would dial a fresh
// TCP connection on nearly every burst; 64 keeps the whole burst warm.
const DefaultMaxIdleConnsPerHost = 64

// TransportTuning sizes a client's HTTP connection pool for fleet
// fan-out. The zero value picks the fleet defaults.
type TransportTuning struct {
	// MaxIdleConnsPerHost bounds idle conns kept per daemon (default
	// DefaultMaxIdleConnsPerHost; negative means the transport default).
	MaxIdleConnsPerHost int
	// MaxConnsPerHost bounds total conns per daemon, dialing included;
	// 0 means unlimited. Use it to stop a retry storm from piling
	// unbounded sockets onto one struggling node.
	MaxConnsPerHost int
	// MaxIdleConns bounds the pool across all daemons (default: scales
	// with MaxIdleConnsPerHost so a router talking to N nodes is not
	// capped by the stock global limit of 100).
	MaxIdleConns int
	// IdleConnTimeout evicts idle conns (default 90s, the stock value).
	IdleConnTimeout time.Duration
}

// NewTransport builds an *http.Transport tuned per t, cloned from
// http.DefaultTransport so proxy/dialer defaults are preserved.
func NewTransport(t TransportTuning) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	switch {
	case t.MaxIdleConnsPerHost > 0:
		tr.MaxIdleConnsPerHost = t.MaxIdleConnsPerHost
	case t.MaxIdleConnsPerHost == 0:
		tr.MaxIdleConnsPerHost = DefaultMaxIdleConnsPerHost
	}
	tr.MaxConnsPerHost = t.MaxConnsPerHost
	if t.MaxIdleConns > 0 {
		tr.MaxIdleConns = t.MaxIdleConns
	} else if tr.MaxIdleConnsPerHost > tr.MaxIdleConns/4 {
		// Room for ~16 hosts' worth of warm conns before global eviction.
		tr.MaxIdleConns = 16 * tr.MaxIdleConnsPerHost
	}
	if t.IdleConnTimeout > 0 {
		tr.IdleConnTimeout = t.IdleConnTimeout
	}
	return tr
}

// TuneTransport installs a tuned transport (see TransportTuning) and
// returns the client, so construction chains:
//
//	c := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
func (c *Client) TuneTransport(t TransportTuning) *Client {
	c.http.Transport = NewTransport(t)
	return c
}

// Counters is a snapshot of the client's resilience counters.
type Counters struct {
	Retries   uint64 // re-sent attempts (attempt >= 2)
	Hedges    uint64 // hedge requests launched
	HedgeWins uint64 // hedges that answered before the primary
	Shed      uint64 // 429/503 answers observed (before any retry succeeded)
}

// Counters returns the client's resilience counters.
func (c *Client) Counters() Counters {
	return Counters{
		Retries:   c.retries.Load(),
		Hedges:    c.hedges.Load(),
		HedgeWins: c.hedgeWins.Load(),
		Shed:      c.shed.Load(),
	}
}

// exchange performs exactly one HTTP round trip and returns the response
// body in a pooled buffer (the caller decodes and releases it) plus the
// Content-Type the response came back in. The body is always read to
// completion (and the error path decoded from it), so the underlying
// connection is reusable whether or not the caller wants the payload.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte, ctype, accept string, attempt int, hedge bool) (*bytes.Buffer, string, error) {
	if c.Timeout >= 0 {
		timeout := c.Timeout
		if timeout == 0 {
			timeout = DefaultTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, "", err
	}
	if payload != nil {
		req.Header.Set("Content-Type", ctype)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if c.ID != "" {
		req.Header.Set(headerClient, c.ID)
	}
	if attempt > 1 {
		req.Header.Set(headerAttempt, strconv.Itoa(attempt))
	}
	if hedge {
		req.Header.Set(headerHedge, "1")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	buf := GetBuffer()
	_, err = buf.ReadFrom(resp.Body)
	if resp.StatusCode/100 != 2 {
		apiErr := &APIError{Status: resp.StatusCode, Message: resp.Status}
		var wire ErrorResponse
		// Errors are always JSON, whatever the request's codec.
		if json.Unmarshal(buf.Bytes(), &wire) == nil && wire.Error != "" {
			apiErr.Message = wire.Error
		}
		PutBuffer(buf)
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
				apiErr.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		if apiErr.Shed() {
			c.shed.Add(1)
		}
		return nil, "", apiErr
	}
	if err != nil {
		PutBuffer(buf)
		return nil, "", err
	}
	return buf, resp.Header.Get("Content-Type"), nil
}

// attempt is one try of the retry loop: a plain exchange, or — for
// idempotent requests with hedging enabled — a primary exchange raced
// against a hedge launched after the Hedge delay. The first success wins
// and the loser is cancelled; when the primary fails before the hedge
// launches there is nothing worth hedging (the retry loop backs off
// instead), and when both fail the first error is returned.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, ctype, accept string, attempt int, idempotent bool) (*bytes.Buffer, string, error) {
	if c.Hedge <= 0 || !idempotent {
		return c.exchange(ctx, method, path, payload, ctype, accept, attempt, false)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel() // aborts the loser once a winner returns
	type result struct {
		buf   *bytes.Buffer
		ctype string
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	run := func(hedge bool) {
		go func() {
			buf, answered, err := c.exchange(hctx, method, path, payload, ctype, accept, attempt, hedge)
			ch <- result{buf, answered, err, hedge}
		}()
	}
	run(false)
	timer := time.NewTimer(c.Hedge)
	defer timer.Stop()
	inflight, hedged := 1, false
	var firstErr error
	for {
		select {
		case <-timer.C:
			hedged = true
			c.hedges.Add(1)
			run(true)
			inflight++
		case r := <-ch:
			inflight--
			if r.err == nil {
				if r.hedge {
					c.hedgeWins.Add(1)
				}
				// A losing sibling still in flight delivers to the buffered
				// channel and its buffer is simply collected by the GC; only
				// the winner's buffer returns to the caller (and the pool).
				return r.buf, r.ctype, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight > 0 {
				continue // the sibling may still succeed
			}
			if !hedged {
				return nil, "", r.err // primary failed before the hedge fired
			}
			return nil, "", firstErr
		}
	}
}

// retryAfterOf extracts a shed answer's Retry-After hint, if any.
func retryAfterOf(err error) time.Duration {
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return apiErr.RetryAfter
	}
	return 0
}

// do is the request engine behind every client method (reached through
// Endpoint.call and callJSON): attempt up to Retry.MaxAttempts times
// (idempotent requests only), sleeping exponential-backoff-with-full-
// jitter delays between attempts and honoring the server's Retry-After
// floor. payload must stay valid for the whole call (every attempt
// re-reads it). The winning response body comes back in a pooled buffer
// with its Content-Type; the caller decodes — copying anything it keeps,
// as both codec paths do — and releases it with PutBuffer.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, ctype, accept string, idempotent bool) (*bytes.Buffer, string, error) {
	attempts := 1
	if idempotent {
		attempts = c.Retry.attempts()
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			delay := c.Retry.delay(attempt-1, retryAfterOf(lastErr))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		}
		buf, answered, err := c.attempt(ctx, method, path, payload, ctype, accept, attempt, idempotent)
		if err == nil {
			return buf, answered, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's context expired: its error, not the attempt's,
			// is what the caller should see.
			return nil, "", err
		}
		if attempt == attempts || c.Retry == nil || !c.Retry.shouldRetry(err) {
			return nil, "", err
		}
	}
	return nil, "", lastErr
}

// Health checks the daemon is up.
func (c *Client) Health() error { return c.HealthCtx(context.Background()) }

// HealthCtx is Health bounded by ctx.
func (c *Client) HealthCtx(ctx context.Context) error {
	_, err := callJSON[struct{}](ctx, c, http.MethodGet, "/healthz", nil, true)
	return err
}

// Healthz fetches the typed readiness probe: whether the daemon is
// admitting evaluations, draining, or mid-recalibration.
func (c *Client) Healthz() (*HealthzResponse, error) {
	return c.HealthzCtx(context.Background())
}

// HealthzCtx is Healthz bounded by ctx.
func (c *Client) HealthzCtx(ctx context.Context) (*HealthzResponse, error) {
	return callJSON[HealthzResponse](ctx, c, http.MethodGet, "/v1/healthz", nil, true)
}

// Drift fetches the drift monitor's state and the calibration generation
// registry. The daemon answers 404 when drift monitoring is not enabled.
func (c *Client) Drift() (*DriftResponse, error) {
	return c.DriftCtx(context.Background())
}

// DriftCtx is Drift bounded by ctx.
func (c *Client) DriftCtx(ctx context.Context) (*DriftResponse, error) {
	return callJSON[DriftResponse](ctx, c, http.MethodGet, "/v1/drift", nil, true)
}

// Register uploads an EIL source file and returns the registered
// interfaces. Registrations mutate the daemon and are never retried.
func (c *Client) Register(source string) ([]InterfaceInfo, error) {
	return c.RegisterCtx(context.Background(), source)
}

// RegisterCtx is Register bounded by ctx.
func (c *Client) RegisterCtx(ctx context.Context, source string) ([]InterfaceInfo, error) {
	resp, err := callJSON[RegisterResponse](ctx, c, http.MethodPost, "/v1/register", RegisterRequest{Source: source}, false)
	if err != nil {
		return nil, err
	}
	return resp.Registered, nil
}

// Interfaces lists the registered interfaces.
func (c *Client) Interfaces() ([]InterfaceInfo, error) {
	return c.InterfacesCtx(context.Background())
}

// InterfacesCtx is Interfaces bounded by ctx.
func (c *Client) InterfacesCtx(ctx context.Context) ([]InterfaceInfo, error) {
	resp, err := callJSON[struct {
		Interfaces []InterfaceInfo `json:"interfaces"`
	}](ctx, c, http.MethodGet, "/v1/interfaces", nil, true)
	if err != nil {
		return nil, err
	}
	return resp.Interfaces, nil
}

// Source fetches the EIL source an interface was registered from.
func (c *Client) Source(name string) (string, error) {
	return c.SourceCtx(context.Background(), name)
}

// SourceCtx is Source bounded by ctx.
func (c *Client) SourceCtx(ctx context.Context, name string) (string, error) {
	resp, err := callJSON[SourceResponse](ctx, c, http.MethodGet, "/v1/interfaces/"+name+"/source", nil, true)
	if err != nil {
		return "", err
	}
	return resp.Source, nil
}

// Rebind swaps the binding at path inside name for the registered
// interface target and returns name's new version. Rebinds mutate the
// daemon and are never retried.
func (c *Client) Rebind(name, path, target string) (uint64, error) {
	return c.RebindCtx(context.Background(), name, path, target)
}

// RebindCtx is Rebind bounded by ctx.
func (c *Client) RebindCtx(ctx context.Context, name, path, target string) (uint64, error) {
	resp, err := callJSON[RebindResponse](ctx, c, http.MethodPost, "/v1/rebind",
		RebindRequest{Interface: name, Path: path, Target: target}, false)
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// Eval evaluates an energy method on the daemon and returns the exact
// distribution (bit-identical to a local Interface.Eval with the same
// options) plus the full wire response.
func (c *Client) Eval(name, method string, args []core.Value, opts core.EvalOptions) (energy.Dist, *EvalResponse, error) {
	return c.EvalCtx(context.Background(), name, method, args, opts)
}

// EvalCtx is Eval bounded by ctx: cancelling it abandons the request —
// the daemon observes the disconnect and cancels the evaluation, freeing
// its worker slot. Evaluations are deterministic and idempotent, so they
// retry (and hedge) per the client's policy.
func (c *Client) EvalCtx(ctx context.Context, name, method string, args []core.Value, opts core.EvalOptions) (energy.Dist, *EvalResponse, error) {
	req := c.EvalRequestFor(name, method, args, opts)
	req.DeadlineMs = int(c.Deadline / time.Millisecond)
	resp, err := EvalEndpoint.call(ctx, c, &req)
	if err != nil {
		return energy.Dist{}, nil, err
	}
	d, err := resp.Dist.Dist()
	if err != nil {
		return energy.Dist{}, nil, fmt.Errorf("eisvc: malformed distribution from daemon: %w", err)
	}
	return d, resp, nil
}

// EvalBatch submits a slice of wire-level eval requests in one round trip
// and returns the per-item results (Results[i] answers Requests[i]).
// Identical items are deduplicated server-side. Per-item failures land in
// the item's Error/Status, not in the returned error.
func (c *Client) EvalBatch(reqs []EvalRequest) ([]BatchEvalItem, error) {
	return c.EvalBatchCtx(context.Background(), reqs)
}

// EvalBatchCtx is EvalBatch bounded by ctx. Items with DeadlineMs == 0 are
// stamped with the client's Deadline; DeadlineMs == NoDeadline (any
// negative value) means the caller explicitly wants no client-side stamp —
// the item is sent with no deadline and the server default applies.
func (c *Client) EvalBatchCtx(ctx context.Context, reqs []EvalRequest) ([]BatchEvalItem, error) {
	for i := range reqs {
		switch {
		case reqs[i].DeadlineMs < 0:
			reqs[i].DeadlineMs = 0 // explicit "no deadline": server default
		case reqs[i].DeadlineMs == 0 && c.Deadline > 0:
			reqs[i].DeadlineMs = int(c.Deadline / time.Millisecond)
		}
	}
	resp, err := EvalBatchEndpoint.call(ctx, c, &BatchEvalRequest{Requests: reqs})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("eisvc: batch returned %d results for %d requests", len(resp.Results), len(reqs))
	}
	return resp.Results, nil
}

// EvalRequestFor builds the wire request Eval would send, for use with
// EvalBatch. The request holds args and opts.Fixed as they are — no copy —
// so they must not change until it has been sent.
func (c *Client) EvalRequestFor(name, method string, args []core.Value, opts core.EvalOptions) EvalRequest {
	return EvalRequest{
		Interface:   name,
		Method:      method,
		Args:        args,
		Mode:        opts.Mode.String(),
		Samples:     opts.Samples,
		Seed:        opts.Seed,
		EnumLimit:   opts.EnumLimit,
		Parallelism: opts.Parallelism,
		Fixed:       opts.Fixed,
	}
}

// CacheLookup probes the daemon's memo for exact canonical keys and
// returns one answer per key, in order; a clean miss is an answer that is
// not Found (err covers transport/API failures and malformed answers).
func (c *Client) CacheLookup(keys ...string) ([]PeerAnswer, error) {
	return c.CacheLookupCtx(context.Background(), keys)
}

// CacheLookupCtx is CacheLookup bounded by ctx. Fleet peer forwarding
// calls this on the evaluation critical path, so callers typically use a
// dedicated client with a short Timeout and no retry policy — a slow
// peer must cost less than evaluating locally.
func (c *Client) CacheLookupCtx(ctx context.Context, keys []string) ([]PeerAnswer, error) {
	resp, err := CacheLookupEndpoint.call(ctx, c, &CacheLookupRequest{Keys: keys})
	if err != nil {
		return nil, err
	}
	if len(resp.Results) != len(keys) {
		return nil, fmt.Errorf("eisvc: probe returned %d results for %d keys", len(resp.Results), len(keys))
	}
	answers := make([]PeerAnswer, len(keys))
	for i, r := range resp.Results {
		if !r.Found || r.Dist == nil {
			continue
		}
		d, err := r.Dist.Dist()
		if err != nil {
			return nil, fmt.Errorf("eisvc: malformed distribution from peer: %w", err)
		}
		answers[i] = PeerAnswer{Dist: d, Found: true}
	}
	return answers, nil
}

// Stats fetches the daemon's serving metrics and energy ledger.
func (c *Client) Stats() (*StatsResponse, error) {
	return c.StatsCtx(context.Background())
}

// StatsCtx is Stats bounded by ctx.
func (c *Client) StatsCtx(ctx context.Context) (*StatsResponse, error) {
	return callJSON[StatsResponse](ctx, c, http.MethodGet, "/v1/stats", nil, true)
}
