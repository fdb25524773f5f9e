package eisvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"maps"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/cache"
	"energyclarity/internal/core"
	"energyclarity/internal/counters"
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
func (e *APIError) Shed() bool { return ShedStatus(e.Status) }

// ShedStatus reports whether a status is a shed: the node refused under
// load (429), or is draining or otherwise unavailable (503). Any other
// status — including request errors like 400/404/422 — is the answer;
// every node would say the same.
func ShedStatus(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// DefaultTimeout bounds one HTTP attempt when Client.Timeout is zero: a
// hung daemon must never block a caller forever.
const DefaultTimeout = 30 * time.Second

// Resilience headers: clients report their retry attempt number and hedge
// status so the daemon's /v1/stats can aggregate fleet-wide retry/hedge
// behavior without client-side scraping.
const (
	headerClient  = "X-Eisvc-Client"
	headerAttempt = "X-Eisvc-Attempt"
	headerHedge   = "X-Eisvc-Hedge"
)

// Hop is one internal request as its headers say: the codecs of its body
// and answer, who asks, and which try it is. The client, the router's
// forward and the peer probe all send through Hop.Send, and a hop carries
// these headers only: no User-Agent (no server here reads one) and no
// Accept-Encoding (none compresses): each line costs its reader allocs.
type Hop struct {
	ContentType, Accept string
	Client              string // X-Eisvc-Client
	Attempt, Hedge      string // X-Eisvc-Attempt, X-Eisvc-Hedge: "" on a first try
}

// Forwarded is the hop carrying inbound r on, with all of r's hop headers.
func Forwarded(r *http.Request) Hop {
	return Hop{r.Header.Get("Content-Type"), r.Header.Get("Accept"),
		r.Header.Get(headerClient), r.Header.Get(headerAttempt), r.Header.Get(headerHedge)}
}

// Send sends body to url through rt.RoundTrip. Not http.Client.Do: a hop
// never redirects, so its redirect loop and header copy are pure cost.
func (h Hop) Send(ctx context.Context, rt http.RoundTripper, method, url string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header = h.header()
	return rt.RoundTrip(req)
}

// hopHeaders holds each hop's header set, built once and then shared
// read-only by every request that carries it. A client ID is the
// caller's to choose, so the table is emptied when it reaches 256 sets.
var hopHeaders = struct {
	sync.Mutex
	m map[Hop]http.Header
}{m: map[Hop]http.Header{}}

func (h Hop) header() http.Header {
	hopHeaders.Lock()
	defer hopHeaders.Unlock()
	if hdr, ok := hopHeaders.m[h]; ok {
		return hdr
	}
	// A present, empty User-Agent tells net/http to send none.
	hdr := http.Header{"User-Agent": {""}}
	for _, kv := range [...][2]string{{"Content-Type", h.ContentType}, {"Accept", h.Accept},
		{headerClient, h.Client}, {headerAttempt, h.Attempt}, {headerHedge, h.Hedge}} {
		if kv[1] != "" {
			hdr[kv[0]] = []string{kv[1]}
		}
	}
	if len(hopHeaders.m) == 256 {
		clear(hopHeaders.m)
	}
	hopHeaders.m[h] = hdr
	return hdr
}

// Client is the typed Go client for the daemon. Every method takes a
// context, and every request carries a per-attempt HTTP timeout as well,
// so a stalled daemon surfaces as an error instead of a hang.
type Client struct {
	// First, to be 64-bit aligned for the atomic functions on any platform.
	counts Counters
	heldMu sync.Mutex
	held   *cache.Store[uint64, *heldAnswer] // batch answers held, by request item hash; under heldMu
	// nodes maps each node ID an eval's answer has carried to the one copy
	// the client keeps (see EvalCtx); replaced, never changed.
	nodes atomic.Value // map[string]string

	base string
	rt   http.RoundTripper
	// ID names this client in the daemon's energy ledger (the
	// X-Eisvc-Client header); empty means "anonymous".
	ID string
	// Deadline, when non-zero, is sent as every eval's queue-wait bound.
	Deadline time.Duration
	// Timeout bounds each HTTP attempt (default DefaultTimeout; negative
	// disables the bound — the caller's ctx is then the only limit).
	Timeout time.Duration
	// Retry, when non-nil, retries idempotent requests (evals and reads —
	// never RegisterCtx/RebindCtx) per the policy. Shed answers honor the
	// server's Retry-After.
	Retry *RetryPolicy
	// Hedge, when positive, races a second identical request after this
	// delay for idempotent calls still in flight — the classic
	// tail-latency hedge. The first answer wins; the loser is cancelled.
	Hedge time.Duration
	// Binary selects the codec of the endpoint-table calls (EvalCtx,
	// EvalBatchCtx, CacheLookupCtx): true, NewClient's default, sends and
	// asks for BinaryContentType, the wire every node, router and fleet
	// client speaks; false is JSON, the debug and interop choice. Every
	// other call (register, stats, drift, ...) is JSON either way.
	Binary bool
}

// NewClient returns a client for the daemon at base (e.g.
// "http://127.0.0.1:7757") that speaks the binary codec.
func NewClient(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), rt: defaultTransport, Binary: true,
		held: cache.NewStore[uint64, *heldAnswer](maxBatch)} // as many distinct items as a batch carries
}

// defaultTransport is the one connection pool of every NewClient client.
var defaultTransport = NewTransport(TransportTuning{})

// SetTransport replaces the underlying HTTP transport — the hook the
// fault-injection harness (internal/faultsim) uses to wrap the client.
// rt must not modify a request (RoundTripper's contract): they share
// header sets.
func (c *Client) SetTransport(rt http.RoundTripper) { c.rt = rt }

// Base returns the daemon base URL this client targets.
func (c *Client) Base() string { return c.base }

// DefaultMaxIdleConnsPerHost sizes the per-daemon idle connection pool of
// a NewTransport transport. The stock http.DefaultTransport keeps only 2
// idle conns per host, so fleet fan-out (a router or peer-forwarding node
// talking to the same daemon from tens of goroutines) would dial a fresh
// TCP connection on nearly every burst; 64 keeps the whole burst warm.
const DefaultMaxIdleConnsPerHost = 64

// TransportTuning is NewTransport's argument; every transport is tuned alike.
type TransportTuning struct{}

// writeBufferSize is each connection's write buffer, which a batch frame
// goes out of: past net/http's 4 KiB default, a body of known length went
// to the connection's ReadFrom, which allocates a copy buffer per request.
const writeBufferSize = 64 << 10

// NewTransport builds the fleet's *http.Transport, cloned from
// http.DefaultTransport so proxy/dialer defaults are preserved:
// DefaultMaxIdleConnsPerHost idle conns per daemon, room for 16 daemons'
// worth before global eviction (the stock global limit of 100 would cap a
// router talking to N nodes), gzip off (see Hop), and a write buffer that
// holds a batch frame (writeBufferSize).
func NewTransport(TransportTuning) *http.Transport {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.DisableCompression = true
	tr.MaxIdleConnsPerHost = DefaultMaxIdleConnsPerHost
	tr.MaxIdleConns = 16 * DefaultMaxIdleConnsPerHost
	tr.WriteBufferSize = writeBufferSize
	return tr
}

// Counters are the client's resilience and held-answer counters (a counters set).
type Counters struct {
	Retries   uint64 // re-sent attempts (attempt >= 2)
	Hedges    uint64 // hedge requests launched
	HedgeWins uint64 // hedges that answered before the primary
	Shed      uint64 // 429/503 answers observed (before any retry succeeded)
	Held      uint64 // batch answers that came back held (see EvalBatchCtx)
}

// Counters returns a snapshot of the client's resilience counters.
func (c *Client) Counters() (snap Counters) {
	counters.Add(&snap, &c.counts)
	return snap
}

// exchange performs exactly one HTTP round trip and returns the response
// body in a pooled buffer (the caller decodes and releases it) plus the
// Content-Type the response came back in. The body is always read to
// completion (and the error path decoded from it), so the underlying
// connection is reusable whether or not the caller wants the payload.
func (c *Client) exchange(ctx context.Context, method, path string, payload []byte, hop Hop) (*bytes.Buffer, string, error) {
	if c.Timeout >= 0 {
		timeout := c.Timeout
		if timeout == 0 {
			timeout = DefaultTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	resp, err := hop.Send(ctx, c.rt, method, c.base+path, payload)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	buf := GetBuffer()
	err = ReadBounded(buf, resp)
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
			atomic.AddUint64(&c.counts.Shed, 1)
		}
		return nil, "", apiErr
	}
	if err != nil {
		PutBuffer(buf)
		return nil, "", err
	}
	return buf, resp.Header.Get("Content-Type"), nil
}

// ReadBounded drains an answer into buf under the rule the fleet router
// applies to node answers, so a direct client accepts exactly what a
// routed one does: a declared length past MaxBodyBytes is refused before
// anything is read, and any other body is read up to the cap and refused
// past it (net/http ends a declared body at its length). The loop reads
// into buf's own tail: an io.LimitedReader would cost an allocation an
// answer.
func ReadBounded(buf *bytes.Buffer, resp *http.Response) error {
	if n := resp.ContentLength; n > MaxBodyBytes {
		return fmt.Errorf("eisvc: answer of %d bytes exceeds %d", n, MaxBodyBytes)
	}
	for {
		buf.Grow(bytes.MinRead)
		tail := buf.AvailableBuffer()
		n, err := resp.Body.Read(tail[:min(cap(tail), MaxBodyBytes+1-buf.Len())])
		buf.Write(tail[:n])
		switch {
		case buf.Len() > MaxBodyBytes:
			return fmt.Errorf("eisvc: answer exceeds %d bytes", MaxBodyBytes)
		case err == io.EOF:
			return nil
		case err != nil:
			return err
		}
	}
}

// attempt is one try of the retry loop: a plain exchange, or — for
// idempotent requests with hedging enabled — a primary exchange raced
// against a hedge launched after the Hedge delay. The first success wins
// and the loser is cancelled; when the primary fails before the hedge
// launches there is nothing worth hedging (the retry loop backs off
// instead), and when both fail the first error is returned.
func (c *Client) attempt(ctx context.Context, method, path string, payload []byte, hop Hop, idempotent bool) (*bytes.Buffer, string, error) {
	if c.Hedge <= 0 || !idempotent {
		return c.exchange(ctx, method, path, payload, hop)
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
	run := func(h Hop) {
		go func() {
			buf, answered, err := c.exchange(hctx, method, path, payload, h)
			ch <- result{buf, answered, err, h.Hedge != ""}
		}()
	}
	run(hop)
	timer := time.NewTimer(c.Hedge)
	defer timer.Stop()
	inflight, hedged := 1, false
	var firstErr error
	for {
		select {
		case <-timer.C:
			hedged, hop.Hedge = true, "1"
			atomic.AddUint64(&c.counts.Hedges, 1)
			run(hop)
			inflight++
		case r := <-ch:
			inflight--
			if r.err == nil {
				if r.hedge {
					atomic.AddUint64(&c.counts.HedgeWins, 1)
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
// floor; attempts after the first carry their number. payload must stay
// valid for the whole call (every attempt re-reads it). The winning
// response body comes back in a pooled buffer with its Content-Type; the
// caller decodes — copying anything it keeps, as both codec paths do —
// and releases it with PutBuffer.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, hop Hop, idempotent bool) (*bytes.Buffer, string, error) {
	attempts := 1
	if idempotent {
		attempts = c.Retry.attempts()
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			atomic.AddUint64(&c.counts.Retries, 1)
			delay := c.Retry.delay(attempt-1, retryAfterOf(lastErr))
			select {
			case <-time.After(delay):
			case <-ctx.Done():
				return nil, "", ctx.Err()
			}
		}
		try := hop
		if attempt > 1 {
			try.Attempt = strconv.Itoa(attempt)
		}
		buf, answered, err := c.attempt(ctx, method, path, payload, try, idempotent)
		if err == nil {
			return buf, answered, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			// The caller's context expired: its error, not the attempt's,
			// is what the caller should see.
			return nil, "", ctx.Err()
		}
		if attempt == attempts || c.Retry == nil || !shouldRetry(err) {
			return nil, "", err
		}
	}
	return nil, "", lastErr
}

// HealthzCtx fetches the typed readiness probe: whether the daemon is
// admitting evaluations, draining, or mid-recalibration.
func (c *Client) HealthzCtx(ctx context.Context) (*HealthzResponse, error) {
	return callJSON[HealthzResponse](ctx, c, http.MethodGet, "/v1/healthz", nil, true)
}

// DriftCtx fetches the drift monitor's state and the calibration
// generation registry. The daemon answers 404 when drift monitoring is not
// enabled.
func (c *Client) DriftCtx(ctx context.Context) (*DriftReport, error) {
	return callJSON[DriftReport](ctx, c, http.MethodGet, "/v1/drift", nil, true)
}

// RegisterCtx uploads an EIL source file and returns the registered
// interfaces. Registrations mutate the daemon and are never retried.
func (c *Client) RegisterCtx(ctx context.Context, source string) ([]InterfaceInfo, error) {
	resp, err := callJSON[RegisterResponse](ctx, c, http.MethodPost, "/v1/register", RegisterRequest{Source: source}, false)
	if err != nil {
		return nil, err
	}
	return resp.Registered, nil
}

// InterfacesCtx lists the registered interfaces.
func (c *Client) InterfacesCtx(ctx context.Context) ([]InterfaceInfo, error) {
	resp, err := callJSON[struct {
		Interfaces []InterfaceInfo `json:"interfaces"`
	}](ctx, c, http.MethodGet, "/v1/interfaces", nil, true)
	if err != nil {
		return nil, err
	}
	return resp.Interfaces, nil
}

// SourceCtx fetches the EIL source an interface was registered from.
func (c *Client) SourceCtx(ctx context.Context, name string) (string, error) {
	resp, err := callJSON[SourceResponse](ctx, c, http.MethodGet, "/v1/interfaces/"+name+"/source", nil, true)
	if err != nil {
		return "", err
	}
	return resp.Source, nil
}

// RebindCtx swaps the binding at path inside name for the registered
// interface target and returns name's new version. Rebinds mutate the
// daemon and are never retried.
func (c *Client) RebindCtx(ctx context.Context, name, path, target string) (uint64, error) {
	resp, err := callJSON[RebindResponse](ctx, c, http.MethodPost, "/v1/rebind",
		RebindRequest{Interface: name, Path: path, Target: target}, false)
	if err != nil {
		return 0, err
	}
	return resp.Version, nil
}

// EvalCtx evaluates an energy method on the daemon and returns the exact
// distribution (bit-identical to a local Interface.Eval with the same
// options) plus the full wire response. Cancelling ctx abandons the
// request — the daemon observes the disconnect and cancels the
// evaluation, freeing its worker slot. Evaluations are deterministic and
// idempotent, so they retry (and hedge) per the client's policy.
// The answer's names are the request's own strings, its mode's core.Mode
// name and a node ID the client keeps, so decoding them copies none.
func (c *Client) EvalCtx(ctx context.Context, name, method string, args []core.Value, opts core.EvalOptions) (energy.Dist, *EvalResponse, error) {
	req := c.EvalRequestFor(name, method, args, opts)
	req.DeadlineMs = int(c.Deadline / time.Millisecond)
	known, _ := c.nodes.Load().(map[string]string)
	resp := &EvalResponse{Interface: req.Interface, Method: req.Method, Mode: req.Mode}
	if err := EvalEndpoint.call(ctx, c, &req, resp, known); err != nil {
		return energy.Dist{}, nil, err
	}
	// A node ID is the daemon's to choose, so the table stops at
	// maxInternEntries. Two racing adds may lose one: a later answer adds it.
	if _, ok := known[resp.Node]; !ok && len(known) < maxInternEntries {
		m := map[string]string{resp.Node: resp.Node}
		maps.Copy(m, known)
		c.nodes.Store(m)
	}
	d, err := resp.Dist.Dist()
	if err != nil {
		return energy.Dist{}, nil, fmt.Errorf("eisvc: malformed distribution from daemon: %w", err)
	}
	return d, resp, nil
}

// EvalBatchCtx submits a slice of wire-level eval requests and returns the
// per-item results (Results[i] answers Requests[i]). They go in order, in
// one round trip per maxBatch (1,024) items, the most a node or the router
// takes in one frame; a failed round trip fails the call. Identical items
// in one frame are deduplicated server-side. In binary, an item that
// encodes to the same bytes as an earlier one of its frame is sent as a ref
// to it, and the items answered by one evaluation come back as refs too:
// they share one *WireDist. An item whose answer the client holds goes held
// and, if the answer stands, comes back without its vectors, as the
// *WireDist held, shared across calls. Every Dist is read-only. Per-item
// failures land in the item's Error/Status, not in the returned error.
// Items with DeadlineMs == 0 are stamped with the client's Deadline; any
// other value goes as it is (one <= 0 is the server default). reqs itself
// is left as it is: the stamped items go out in a copy, made only when
// some item needs one.
func (c *Client) EvalBatchCtx(ctx context.Context, reqs []EvalRequest) ([]BatchEvalItem, error) {
	sent := reqs
	unset := func(r EvalRequest) bool { return r.DeadlineMs == 0 }
	if d := int(c.Deadline / time.Millisecond); d != 0 && slices.ContainsFunc(reqs, unset) {
		sent = slices.Clone(reqs)
		for i := range sent {
			if unset(sent[i]) {
				sent[i].DeadlineMs = d
			}
		}
	}
	if len(sent) <= maxBatch {
		return c.evalFrame(ctx, sent)
	}
	out := make([]BatchEvalItem, 0, len(sent))
	for off := 0; off < len(sent); off += maxBatch {
		items, err := c.evalFrame(ctx, sent[off:min(off+maxBatch, len(sent))])
		if err != nil {
			return nil, err
		}
		out = append(out, items...)
	}
	return out, nil
}

// evalFrame is one round trip of EvalBatchCtx: reqs in one frame.
func (c *Client) evalFrame(ctx context.Context, reqs []EvalRequest) ([]BatchEvalItem, error) {
	holds := holdsPool.Get().(*batchHolds) // JSON holds none
	defer holds.release()
	holds.c = c
	holds.held = slices.Grow(holds.held, len(reqs))[:len(reqs)]
	holds.spans = slices.Grow(holds.spans, len(reqs))[:len(reqs)]
	resp := new(BatchEvalResponse)
	if err := EvalBatchEndpoint.call(ctx, c, &BatchEvalRequest{Requests: reqs, holds: holds}, resp, nil); err != nil {
		return nil, err
	}
	if len(resp.Results) != len(reqs) {
		return nil, fmt.Errorf("eisvc: batch returned %d results for %d requests", len(resp.Results), len(reqs))
	}
	if err := holds.settle(resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

// heldAnswer is an answer held for the request item item, its dist tagged
// (see DistTag); never changed.
type heldAnswer struct {
	item string
	dist WireDist
}

// batchHolds is what the request items of one batch call went out as:
// held against an answer, or else as their bytes, frame[spans[i]] of the
// request as sent (Endpoint.call); neither for a ref. It is pooled, and
// emptied before it goes back; maxBatch caps its slices.
type batchHolds struct {
	c     *Client
	held  []*heldAnswer
	spans []span
	frame []byte
}

var holdsPool = sync.Pool{New: func() any { return new(batchHolds) }}

func (b *batchHolds) release() {
	clear(b.held)
	clear(b.spans)
	*b = batchHolds{held: b.held[:0], spans: b.spans[:0]}
	holdsPool.Put(b)
}

// find returns the tag held for request item i (bytes item, hash h, at
// start in the frame), or 0.
func (b *batchHolds) find(i int, h uint64, item []byte, start int) uint64 {
	b.c.heldMu.Lock()
	defer b.c.heldMu.Unlock()
	if a, ok := b.c.held.Get(h); ok && a.item == string(item) {
		b.held[i] = a
		return a.dist.tag
	}
	b.spans[i] = span{i, start, start + len(item)} // only here: a held item moves up for its prefix
	return 0
}

// settle gives each held answer the Dist held for its item (or the item a
// ref copies), and holds a 200 served without an evaluation and any full
// answer to a held item, in place of what was.
func (b *batchHolds) settle(resp *BatchEvalResponse) error {
	b.c.heldMu.Lock()
	defer b.c.heldMu.Unlock()
	for i, was := range b.held {
		switch it := &resp.Results[i]; {
		case it.held && b.held[resp.refs[i]] == nil: // refs: the decoder keeps them with a held item
			return fmt.Errorf("eisvc: answer item %d came back held, but its request item was not sent held", i)
		case it.held:
			it.Dist, it.held = &b.held[resp.refs[i]].dist, false
			if was != nil { // not a ref: Counters.Held counts what was sent held
				atomic.AddUint64(&b.c.counts.Held, 1)
			}
		case was == nil && b.spans[i].end == 0 || it.Status != http.StatusOK || it.Dist == nil:
		case was != nil || it.Cached || it.Peer:
			s := b.spans[i]
			a := &heldAnswer{item: string(b.frame[s.off:s.end]), dist: *it.Dist}
			a.dist.tag = DistTag(it.Dist)
			if was != nil {
				a.item = was.item
			}
			b.c.held.Put(maphash.String(keySeed, a.item), a)
		}
	}
	return nil
}

// EvalRequestFor builds the wire request EvalCtx would send, for use with
// EvalBatchCtx. The request holds args and opts.Fixed as they are — no copy —
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

// CacheLookupCtx probes the daemon's memo for exact canonical keys and
// returns one answer per key, in order; a clean miss is an answer that is
// not Found (err covers transport/API failures and malformed answers).
// With summary set it also returns the daemon's memo summary, if sent.
// Fleet peer forwarding calls this on the evaluation critical path, so
// callers typically use a dedicated client with a short Timeout and no
// retry policy — a slow peer must cost less than evaluating locally.
func (c *Client) CacheLookupCtx(ctx context.Context, keys []string, summary bool) ([]PeerAnswer, []uint32, error) {
	resp := new(CacheLookupResponse)
	if err := CacheLookupEndpoint.call(ctx, c, &CacheLookupRequest{Keys: keys, Summary: summary}, resp, nil); err != nil {
		return nil, nil, err
	}
	if len(resp.Results) != len(keys) {
		return nil, nil, fmt.Errorf("eisvc: probe returned %d results for %d keys", len(resp.Results), len(keys))
	}
	for i := 1; i < len(resp.Summary); i++ { // the binary decoder checks this too; JSON does not
		if resp.Summary[i] <= resp.Summary[i-1] {
			return nil, nil, fmt.Errorf("eisvc: peer summary not strictly ascending at %d", i)
		}
	}
	answers := make([]PeerAnswer, len(keys))
	for i, r := range resp.Results {
		if !r.Found || r.Dist == nil {
			continue
		}
		d, err := r.Dist.Dist()
		if err != nil {
			return nil, nil, fmt.Errorf("eisvc: malformed distribution from peer: %w", err)
		}
		answers[i] = PeerAnswer{Dist: d, Found: true}
	}
	return answers, resp.Summary, nil
}

// StatsCtx fetches the daemon's serving metrics and energy ledger.
func (c *Client) StatsCtx(ctx context.Context) (*StatsResponse, error) {
	return callJSON[StatsResponse](ctx, c, http.MethodGet, "/v1/stats", nil, true)
}
