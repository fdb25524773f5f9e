package eisvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/cache"
	"energyclarity/internal/core"
	"energyclarity/internal/counters"
	"energyclarity/internal/drift"
	"energyclarity/internal/energy"

	// The daemon serves EIL interfaces through compiled programs;
	// importing opt registers the compiler with core.
	_ "energyclarity/internal/opt"
)

// Config tunes a Server. The zero value picks sane defaults.
type Config struct {
	// Workers bounds concurrent evaluations (default: GOMAXPROCS).
	Workers int
	// QueueLimit bounds requests waiting for a worker slot; arrivals
	// beyond it are shed with 429 (default 64).
	QueueLimit int
	// MemoCapacity bounds the memoization cache (default 1024 entries;
	// 0 keeps the default — use NoMemo to disable memoization).
	MemoCapacity int
	// NoMemo disables the memoization cache entirely.
	NoMemo bool
	// DefaultDeadline bounds how long a request may wait for a worker
	// slot when it does not carry its own deadline (default 5s).
	DefaultDeadline time.Duration
	// MaxSamples caps EvalRequest.Samples; larger asks are rejected with
	// 400 before touching the worker pool (default 1<<20).
	MaxSamples int
	// LayerCapacity bounds the compositional layer cache shared by all
	// evaluations (default core.DefaultLayerCapacity; 0 keeps the default —
	// use NoLayerCache to disable).
	LayerCapacity int
	// NoLayerCache disables the compositional layer cache: evaluations
	// recompute every sub-interface result. Mostly for benchmarking the
	// cache itself.
	NoLayerCache bool
	// NodeID names this daemon instance in a fleet. When set it is echoed
	// on every response as X-Eisvc-Node and surfaced in /v1/stats, so
	// traces attribute answers (and hedged winners) to the serving node.
	NodeID string
}

func (c Config) withDefaults() Config {
	defaultTo(&c.Workers, runtime.GOMAXPROCS(0))
	defaultTo(&c.QueueLimit, 64)
	defaultTo(&c.MemoCapacity, 1024)
	if c.NoMemo {
		c.MemoCapacity = 0
	}
	defaultTo(&c.DefaultDeadline, 5*time.Second)
	defaultTo(&c.MaxSamples, 1<<20)
	defaultTo(&c.LayerCapacity, core.DefaultLayerCapacity)
	return c
}

// defaultTo fills an unset (zero or negative) knob with its default.
func defaultTo[T int | time.Duration](knob *T, def T) {
	if *knob <= 0 {
		*knob = def
	}
}

// Server is the energy-interface daemon: an http.Handler exposing the
// registry, the memoized evaluation service, and the stats endpoint.
// Construct with NewServer, seed the registry (wire registrations and/or
// Registry.RegisterInterface for native stacks), and serve.
type Server struct {
	// First, to be 64-bit aligned for the atomic functions on any platform.
	counts      nodeCounters
	driftCounts driftCounters

	cfg    Config
	reg    *Registry
	memo   *Memo
	layer  *core.LayerCache // nil when Config.NoLayerCache
	flight cache.Flight[evalOutcome]
	adm    *admission
	ledger *Ledger
	lat    *latencies
	mux    *http.ServeMux
	node   []string // X-Eisvc-Node's value, shared by every answer

	// The fleet peer-cache hook (see SetPeerLookup).
	peerLookup atomic.Pointer[PeerLookup]

	// Drain state: once draining, evaluation endpoints shed with 503 and
	// idle is closed when the last in-flight evaluation finishes.
	drainMu  sync.Mutex
	draining bool
	inflight int
	idle     chan struct{}
	idleOnce sync.Once

	// The continuous-calibration controller (see drift.go).
	driftCtl atomic.Pointer[drift.Controller]
}

// NewServer returns a daemon with the given configuration.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		reg:    NewRegistry(),
		memo:   NewMemo(cfg.MemoCapacity),
		adm:    newAdmission(cfg.Workers, cfg.QueueLimit),
		ledger: NewLedger(),
		lat:    newLatencies(),
		mux:    http.NewServeMux(),
		idle:   make(chan struct{}),
		node:   []string{cfg.NodeID},
	}
	if !cfg.NoLayerCache {
		s.layer = core.NewLayerCache(cfg.LayerCapacity)
	}
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/drift", s.handleDrift)
	s.mux.HandleFunc("POST /v1/register", s.handleRegister)
	s.mux.HandleFunc("GET /v1/interfaces", s.handleList)
	s.mux.HandleFunc("GET /v1/interfaces/{name}", s.handleDescribe)
	s.mux.HandleFunc("GET /v1/interfaces/{name}/source", s.handleSource)
	s.mux.HandleFunc("POST /v1/rebind", s.handleRebind)
	serve(s, EvalEndpoint, &s.counts.EvalRequests, s.handleEval)
	serve(s, EvalBatchEndpoint, &s.counts.BatchRequests, s.handleEvalBatch)
	// A memo probe is not evaluation work: it is uncounted here, takes no
	// part in drain accounting, and so keeps answering while the node
	// drains (see handleCacheLookup).
	serve(s, CacheLookupEndpoint, nil, s.handleCacheLookup)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	return s
}

// Registry exposes the daemon's registry so embedding code (cmd/eid, the
// experiments rig) can seed native interfaces before serving.
func (s *Server) Registry() *Registry { return s.reg }

// ApplyRegistrySnapshot merges a replication snapshot into this node's
// registry (see Registry.ApplySnapshot) and, when anything new was
// installed, notes a layer-cache invalidation exactly as a local
// register/rebind would: the snapshot carries fresh interface versions,
// so entries keyed by the old versions are unreachable.
func (s *Server) ApplyRegistrySnapshot(snap RegistrySnapshot) int {
	applied := s.reg.ApplySnapshot(snap)
	if applied > 0 {
		s.noteInvalidation()
	}
	return applied
}

// noteInvalidation records that the registry just handed out fresh
// interface versions — a re-registration versions the whole stack, a
// rebind clones only the rebound path — so layer-cache entries keyed by
// the old versions are unreachable (an implicit invalidation), while
// entries for untouched sibling subtrees stay live.
func (s *Server) noteInvalidation() {
	if s.layer != nil {
		s.layer.NoteInvalidation()
	}
}

// PeerAnswer is what the fleet holds for one probed key: Dist is set iff
// Found. Skipped marks a key the lookup sent to no peer.
type PeerAnswer struct {
	Dist           energy.Dist
	Found, Skipped bool
}

// PeerLookup asks the rest of the fleet for memoized answers by their
// canonical memo keys — every key a batch missed locally in one call, a
// single eval's miss as a list of one. It returns one answer per key, in
// order, Found only on an exact hit; errors and misses are both "not
// found". A nil result means every key was skipped. Implementations
// should bound their own time (the fleet uses a short per-request
// timeout): the caller evaluates nothing until the lookup returns. A
// single eval's miss also passes its queue deadline (a batch the zero
// time): a lookup that sends a request bounds it by cache.Until(ctx,
// deadline), so one that asks nobody makes no timer. keys is the
// caller's to reuse once the lookup returns; a lookup keeps none of it.
type PeerLookup func(ctx context.Context, deadline time.Time, keys []string) []PeerAnswer

// SetPeerLookup installs the fleet peer-cache hook: a memo miss then
// consults peers before paying for a local evaluation; a peer hit is
// stored in the local memo, so each key is fetched across the fleet at
// most once per node.
func (s *Server) SetPeerLookup(fn PeerLookup) { s.peerLookup.Store(&fn) }

// --- graceful drain ---

// beginEval admits one evaluation request into the drain accounting; it
// returns false when the server is draining (the caller must shed with
// 503), and otherwise settle(-1) must run when the request finishes.
func (s *Server) beginEval() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.inflight++
	return true
}

// settle adjusts the in-flight count by delta and closes idle once a
// draining server has nothing left in flight.
func (s *Server) settle(delta int) {
	s.drainMu.Lock()
	s.inflight += delta
	settled := s.draining && s.inflight == 0
	s.drainMu.Unlock()
	if settled {
		s.idleOnce.Do(func() { close(s.idle) })
	}
}

// BeginDrain stops admitting evaluation work: /v1/eval and /v1/evalbatch
// answer 503 (with Retry-After, so well-behaved clients fail over) while
// registry reads, registrations, and /v1/stats keep working. In-flight
// evaluations run to completion; wait for them with Drain. BeginDrain is
// idempotent.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	s.draining = true
	s.drainMu.Unlock()
	s.settle(0)
}

// Drain begins draining (if not already) and blocks until every in-flight
// evaluation has finished or ctx expires; on expiry it reports how many
// evaluations were still running.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	select {
	case <-s.idle:
		return nil
	case <-ctx.Done():
		s.drainMu.Lock()
		n := s.inflight
		s.drainMu.Unlock()
		return fmt.Errorf("eisvc: drain: %d evaluation(s) still in flight: %w", n, ctx.Err())
	}
}

// Draining reports whether the server has stopped admitting evaluations.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// InFlight returns the number of evaluation requests currently admitted.
func (s *Server) InFlight() int {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.inflight
}

// shedForDrain answers an evaluation request arriving after BeginDrain.
func (s *Server) shedForDrain(w http.ResponseWriter) {
	atomic.AddUint64(&s.counts.ShedDraining, 1)
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusServiceUnavailable, "eisvc: draining — not admitting new evaluations")
}

// noteResilience aggregates the client-reported retry/hedge headers so
// /v1/stats shows fleet-wide resilience behavior.
func (s *Server) noteResilience(r *http.Request) {
	if v := r.Header.Get("X-Eisvc-Attempt"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			atomic.AddUint64(&s.counts.RetriedRequests, 1)
			atomic.AddUint64(&s.counts.RetryAttempts, uint64(n-1))
		}
	}
	if r.Header.Get("X-Eisvc-Hedge") == "1" {
		atomic.AddUint64(&s.counts.HedgedRequests, 1)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.NodeID != "" {
		w.Header()["X-Eisvc-Node"] = s.node
	}
	s.mux.ServeHTTP(w, r)
}

// serve registers one endpoint-table entry on the mux: read (bounded, and
// made a binary frame by Codec.Frame, re-encoding a JSON body; the frame
// is pooled, so no answer may alias it) → handle, which lays its answer
// frame out in a pooled buffer → WriteFrame (transcoded per Accept), an
// error going out through evalStatus. A non-nil counter marks an
// evaluation route and adds what all of those share: count the request,
// note its resilience headers, pass the drain gate (503 once draining),
// and record the latency of every answered request.
func serve[Req, Resp any](s *Server, ep *Endpoint[Req, Resp], counter *uint64, handle func(r *http.Request, frame []byte, out *bytes.Buffer) error) {
	s.mux.HandleFunc("POST "+ep.Path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if counter != nil {
			atomic.AddUint64(counter, 1)
			s.noteResilience(r)
			if !s.beginEval() {
				s.shedForDrain(w)
				return
			}
			defer s.settle(-1)
		}
		body, scratch := GetBuffer(), GetBuffer()
		defer func() { PutBuffer(body); PutBuffer(scratch) }()
		if !ReadBody(w, r, body) {
			return
		}
		frame, err := ep.Request.Frame(scratch, r.Header.Get("Content-Type"), body.Bytes())
		if err != nil {
			WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		out := scratch // a binary request's frame is its body, and scratch is free
		if scratch.Len() > 0 {
			out = GetBuffer()
			defer PutBuffer(out)
		}
		if err := handle(r, frame, out); err != nil {
			writeEvalError(w, err)
			return
		}
		if counter != nil {
			s.lat.observe(float64(time.Since(start)) / float64(time.Millisecond))
		}
		ep.WriteFrame(w, r, out)
	})
}

// --- helpers ---

// WriteJSON answers with v as JSON. It encodes through a pooled buffer:
// one reusable allocation instead of the encoder's per-call growth, and
// an exact Content-Length.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, jsonContentType, buf)
}

// WriteError answers with the JSON ErrorResponse every non-2xx carries.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeJSON reads a JSON-only request (register, rebind) through the
// same bounded reader as the negotiated routes.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := GetBuffer()
	defer PutBuffer(buf)
	if !ReadBody(w, r, buf) {
		return false
	}
	if err := decodeStrictJSON(buf.Bytes(), v); err != nil {
		WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

// clientID identifies the requester for the energy ledger.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Eisvc-Client"); id != "" {
		return id
	}
	return "anonymous"
}

// --- handlers ---

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Source == "" {
		WriteError(w, http.StatusBadRequest, "empty source")
		return
	}
	names, err := s.reg.RegisterSource(req.Source)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, "register: %v", err)
		return
	}
	s.noteInvalidation()
	resp := RegisterResponse{}
	for _, name := range names {
		iface, version, _ := s.reg.Get(name)
		resp.Registered = append(resp.Registered, infoFor(name, version, iface, false))
	}
	WriteJSON(w, http.StatusOK, resp)
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"interfaces": s.reg.List()})
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	iface, version, ok := s.reg.Get(name)
	if !ok {
		WriteError(w, http.StatusNotFound, "no interface %q", name)
		return
	}
	_, native, _ := s.reg.Source(name)
	info := infoFor(name, version, iface, native)
	WriteJSON(w, http.StatusOK, map[string]any{
		"interface": info,
		"describe":  iface.Describe(),
	})
}

func (s *Server) handleSource(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	src, native, ok := s.reg.Source(name)
	if !ok {
		WriteError(w, http.StatusNotFound, "no interface %q", name)
		return
	}
	if native {
		WriteError(w, http.StatusNotFound, "interface %q is native (built in Go); no EIL source", name)
		return
	}
	WriteJSON(w, http.StatusOK, SourceResponse{Name: name, Source: src})
}

func (s *Server) handleRebind(w http.ResponseWriter, r *http.Request) {
	var req RebindRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	version, err := s.reg.Rebind(req.Interface, req.Path, req.Target)
	if err != nil {
		status := http.StatusUnprocessableEntity
		if _, _, ok := s.reg.Get(req.Interface); !ok {
			status = http.StatusNotFound
		}
		WriteError(w, status, "rebind: %v", err)
		return
	}
	s.noteInvalidation()
	WriteJSON(w, http.StatusOK, RebindResponse{Interface: req.Interface, Version: version})
}

// evalOutcome is what one coalesced evaluation produces: the answer, in
// the wire form its memo entry holds (shared and read-only, see memoEntry),
// and whether it was resolved without running Eval locally — from the
// memo, (peer) from another fleet node's warm cache, or (coalesced) by
// another request's flight.
type evalOutcome struct {
	wire                     *WireDist
	memoHit, peer, coalesced bool
}

// probePeers hands keys — local memo misses — to the fleet hook in one
// call, installs what the fleet held in the local memo (so each key
// crosses the fleet at most once per node) and counts hits, misses and
// skipped keys. It returns one answer per key, nil where no peer held it,
// or nil when the hook skipped every key.
func (s *Server) probePeers(ctx context.Context, deadline time.Time, lookup PeerLookup, keys []string) []*WireDist {
	var found []*WireDist
	hits, skipped := 0, len(keys)
	if answers := lookup(ctx, deadline, keys); answers != nil {
		found, skipped = make([]*WireDist, len(keys)), 0
		for i, a := range answers {
			if a.Found {
				found[i] = s.memo.put(keys[i], a.Dist)
				hits++
			} else if a.Skipped {
				skipped++
			}
		}
	}
	atomic.AddUint64(&s.counts.PeerHits, uint64(hits))
	atomic.AddUint64(&s.counts.PeerSkipped, uint64(skipped))
	atomic.AddUint64(&s.counts.PeerMisses, uint64(len(keys)-hits-skipped))
	return found
}

// oneKeys holds the one-key lists a single eval's miss asks its peers
// with: a list on the stack would move to the heap, since the compiler
// cannot see that a PeerLookup keeps none of it.
var oneKeys = sync.Pool{New: func() any { return new([1]string) }}

// evalMiss resolves a key the memo did not hold. Every evaluation path
// funnels through here, so the discipline is uniform: a singleflight
// keyed by the memo key — N concurrent identical misses run exactly one
// Eval — whose leader re-checks the memo (a flight that finished between
// the caller's miss and the flight forming already published its answer),
// asks the fleet through probe when it is not nil (a batch passes nil: it
// has already asked, for all of its misses together), wins a worker slot
// under the usual admission rules, evaluates with the layer cache attached,
// and publishes to the memo.
//
// ctx is the request's own context; it cancels the running evaluation
// when the client disconnects, so an abandoned request frees its worker
// slot within one shard chunk instead of burning it to completion. The
// miss's queue deadline additionally bounds the flight, peer and queue
// waits only: once running, an evaluation is bounded by the samples/enum
// caps (and by ctx), not by the queue deadline. The deadline is a value:
// only a waiter that blocks — a flight follower, a peer probe that sends
// a request, a request behind a full gate — makes a timer of it
// (cache.Until), so a miss that finds a worker slot free pays for none.
// A cancelled coalesced leader fails its followers too (they see
// context.Canceled as a 503 and may retry).
func (s *Server) evalMiss(ctx context.Context, m *miss, probe *PeerLookup) (evalOutcome, error) {
	key := m.key
	out, coalesced, err := s.flight.Do(ctx, m.deadline, key, func() (evalOutcome, error) {
		if w := wireOf(s.memo, key); w != nil {
			return evalOutcome{wire: w, memoHit: true}, nil
		}
		// Fleet peer forwarding: before paying for a local evaluation, ask
		// whether another node already holds this key warm. Running here —
		// on the singleflight leader, before admission — means one peer
		// round trip serves every coalesced waiter and never occupies a
		// worker slot. The distribution travels bit-exactly (WireDist
		// round-trips through energy.FromSorted), so a peer answer is
		// indistinguishable from a local one.
		if probe != nil {
			one := oneKeys.Get().(*[1]string)
			one[0] = key
			found := s.probePeers(ctx, m.deadline, *probe, one[:])
			one[0] = ""
			oneKeys.Put(one)
			if found != nil && found[0] != nil {
				return evalOutcome{wire: found[0], memoHit: true, peer: true}, nil
			}
		}
		if err := s.adm.admit(ctx, m.deadline); err != nil {
			return evalOutcome{}, err
		}
		defer s.adm.release()
		opts := m.k.opts
		opts.Layer = s.layer // nil (disabled) is valid
		atomic.AddUint64(&s.counts.Evaluations, 1)
		d, evalErr := m.k.entry.iface.EvalCtx(ctx, m.k.method, m.k.args, opts)
		if evalErr != nil {
			if errors.Is(evalErr, context.Canceled) || errors.Is(evalErr, context.DeadlineExceeded) {
				return evalOutcome{}, evalErr
			}
			return evalOutcome{}, &evalFailed{err: evalErr}
		}
		return evalOutcome{wire: s.memo.put(key, d)}, nil
	})
	if coalesced {
		atomic.AddUint64(&s.counts.Coalesced, 1)
	}
	out.coalesced = coalesced
	return out, err
}

// evalFailed wraps an Interface.Eval error so evalStatus can tell a
// malformed-evaluation failure (422) from admission shedding (429/503).
type evalFailed struct{ err error }

func (e *evalFailed) Error() string { return e.err.Error() }
func (e *evalFailed) Unwrap() error { return e.err }

// rejection is a request the handler refuses before evaluating anything:
// a cap exceeded, a malformed field, an unknown interface.
type rejection struct {
	status int
	msg    string
}

func (e *rejection) Error() string { return e.msg }

func reject(status int, format string, args ...any) *rejection {
	return &rejection{status: status, msg: fmt.Sprintf(format, args...)}
}

// evalStatus maps a handler error onto its HTTP status, for whole
// responses (writeEvalError) and per-item batch errors alike.
func evalStatus(err error) int {
	var ef *evalFailed
	var rej *rejection
	switch {
	case errors.As(err, &rej):
		return rej.status
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDeadline), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.As(err, &ef):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// writeEvalError answers a failed request. An evaluation failure is
// reported as such, without whatever context wrapped it on the way up.
func writeEvalError(w http.ResponseWriter, err error) {
	var ef *evalFailed
	if errors.As(err, &ef) {
		WriteError(w, evalStatus(err), "eval: %v", ef.err)
		return
	}
	WriteError(w, evalStatus(err), "%v", err)
}

// keyedItem is a request item as keyItem leaves it; a miss decodes its
// body into args and opts.Fixed.
type keyedItem struct {
	name, method string // the registry's and the interface's own strings, unless rejected
	rej          *rejection
	entry        *regEntry
	opts         core.EvalOptions
	args         Args
	deadlineMs   int
	body         int // where its body starts in the frame
}

// keyItem walks the request item at c.off, keying, and checks its head on
// the way: the samples and enumeration caps, the mode, and the stack,
// looked up by its bytes. An item that passes has its memo key appended
// to c.key; one that does not has k.rej set (and text that is no key).
func (s *Server) keyItem(c *coder, k *keyedItem) {
	var r EvalRequest // the head's fixed-width fields
	head := c.off
	if c.evalHead(&r); c.failed() {
		return
	}
	iface, method, mode := headNames(c.data[head:c.off])
	k.body, k.deadlineMs = c.off, r.DeadlineMs
	m, err := parseMode(mode)
	e := s.reg.lookup(iface)
	switch {
	case r.Samples > s.cfg.MaxSamples:
		k.rej = reject(http.StatusBadRequest, "samples %d exceeds server cap %d", r.Samples, s.cfg.MaxSamples)
	case r.EnumLimit > maxEnumLimit:
		k.rej = reject(http.StatusBadRequest, "enum_limit %d exceeds server cap %d", r.EnumLimit, maxEnumLimit)
	case err != nil:
		k.rej = reject(http.StatusBadRequest, "%v", err)
	case e == nil:
		k.rej = reject(http.StatusNotFound, "no interface %q", iface)
	default:
		k.entry, k.name, k.method = e, e.name, e.iface.MethodName(method)
		// Parallelism is remote input that sizes a goroutine fan-out, and it
		// is not in the memo key: answers are bit-identical at any value. So
		// an explicit one is clamped to what 0 means, one worker per CPU.
		k.opts = core.EvalOptions{Mode: m, EnumLimit: r.EnumLimit, Samples: r.Samples, Seed: r.Seed, Parallelism: r.Parallelism}
		if k.opts.Parallelism > 0 {
			k.opts.Parallelism = min(k.opts.Parallelism, runtime.GOMAXPROCS(0))
		}
		c.key = appendKeyHead(c.key, e.name, e.version, method, m, r.Samples, r.EnumLimit, r.Seed)
	}
	if k.rej != nil {
		k.name, k.method = string(iface), string(method)
	}
	c.evalBody(&r)
}

// parseMode is core.ParseMode for bytes; a canonical spelling is free.
func parseMode(b []byte) (core.Mode, error) {
	for _, m := range core.Modes {
		if string(b) == m.String() {
			return m, nil
		}
	}
	return core.ParseMode(string(b))
}

// miss is a request item the memo missed, with what only a miss needs:
// its keyed item (decoded, to evaluate), its key as a string and the
// deadline of its queue waits.
type miss struct {
	result   int // a batch's: its entry in the batch's results
	k        keyedItem
	key      string
	deadline time.Time
}

// decodeBodies decodes the bodies of the misses' items of frame, the one
// decode a miss pays: as a batch decoder does, into one Args. It takes
// the misses themselves, not a function that finds their items, so that
// a single eval's miss stays on its stack.
func decodeBodies(frame []byte, misses []miss) {
	c := newCoder(decoding, nil, frame)
	c.batch = true
	for j := range misses {
		k, r := &misses[j].k, EvalRequest{}
		c.off = k.body
		c.evalBody(&r)
		k.args, k.opts.Fixed = r.Args, r.Fixed
	}
	all := make(Args, len(c.vals))
	copy(all, c.vals)
	for j := range misses {
		if k := &misses[j].k; len(k.args) > 0 {
			k.args, all = all[:len(k.args):len(k.args)], all[len(k.args):]
		}
	}
	c.release()
}

// deadlineFor returns the end of a request's queue waits, counted from
// now. DeadlineMs <= 0 means the server default. One too long for a
// time.Duration saturates rather than wrap negative (expired).
func (s *Server) deadlineFor(deadlineMs int) time.Time {
	wait := s.cfg.DefaultDeadline
	if ms := time.Duration(deadlineMs); ms > math.MaxInt64/time.Millisecond {
		wait = math.MaxInt64
	} else if ms > 0 {
		wait = ms * time.Millisecond
	}
	return time.Now().Add(wait)
}

// keyBufs holds the buffers requests build their memo keys in, apart from
// bufPool's, which converge on the largest frame the process moves.
// putKeys returns one, grown to key.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

func putKeys(p *[]byte, key []byte) {
	if cap(key) <= maxPooledBuf {
		*p = key[:0]
		keyBufs.Put(p)
	}
}

// handleEval keys the request off its bytes and answers a memo hit without
// decoding it; a miss decodes its body and goes to evalMiss with peer
// probing on, waiting at most the request's deadline for a flight or a
// worker slot. (A batch probes for all of its misses at once.)
func (s *Server) handleEval(r *http.Request, frame []byte, out *bytes.Buffer) error {
	keys := keyBufs.Get().(*[]byte)
	c := newCoder(keying, nil, frame)
	c.key = *keys
	c.header(kindEvalRequest)
	var one [1]miss
	m := &one[0]
	k := &m.k
	s.keyItem(c, k)
	c.done()
	key := c.key
	err := c.release()
	defer putKeys(keys, key)
	switch {
	case err != nil:
		return reject(http.StatusBadRequest, "bad request body: %v", err)
	case k.rej != nil:
		return k.rej
	}
	var got evalOutcome
	if w := wireOf(s.memo, key); w != nil {
		got = evalOutcome{wire: w, memoHit: true}
	} else {
		decodeBodies(frame, one[:])
		m.key, m.deadline = string(key), s.deadlineFor(k.deadlineMs)
		if got, err = s.evalMiss(r.Context(), m, s.peerLookup.Load()); err != nil {
			return err
		}
	}
	w := got.wire
	s.ledger.record(clientID(r), k.name, w.Mean, w.P99, w.Max, got.memoHit || got.coalesced)
	// Laid out by a direct call, not Codec.Encode's func value, so that the
	// answer stays on the stack.
	c = newCoder(encoding, out, nil)
	c.header(kindEvalResponse)
	c.evalResponse(&EvalResponse{
		Interface: k.name,
		Version:   k.entry.version,
		Method:    k.method,
		Mode:      k.opts.Mode.String(),
		Dist:      *w, // the vectors stay the memo entry's: read-only
		Cached:    got.memoHit,
		Coalesced: got.coalesced,
		Peer:      got.peer,
		Node:      s.cfg.NodeID,
	})
	return c.release()
}

// keySeed seeds the hashes a batch finds its duplicate keys by.
var keySeed = maphash.MakeSeed()

// keyResult is what a batch answers every item that shares one key with:
// the key's range in the batch's keys, the item that first named it, the
// head its answer items carry and the outcome. A rejected item has one of
// its own, never shared, with no mode and the rejection for err.
type keyResult struct {
	start, end, first  int
	name, method, mode string
	version            uint64
	out                evalOutcome
	err                error
}

// batchScratch is a batch's per-item and per-key state (see
// handleEvalBatch): pooled, and emptied before it goes back, so that it
// keeps nothing of a batch alive. maxBatch caps its slices.
type batchScratch struct {
	byHash  map[uint64]int // a distinct key's hash → its entry in results
	cold    []miss
	shared  []int    // item i rides on results[shared[i]]
	held    []uint64 // the tag each item's held prefix named, or 0; empty for none
	results []keyResult
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{byHash: map[uint64]int{}} }}

func (b *batchScratch) release() {
	clear(b.byHash)
	clear(b.cold)
	clear(b.held)
	clear(b.results)
	b.cold, b.shared, b.held, b.results = b.cold[:0], b.shared[:0], b.held[:0], b.results[:0]
	batchScratchPool.Put(b)
}

// handleEvalBatch evaluates a slice of requests in one round trip, in
// three phases. (1) Every item is keyed off its bytes (keyItem) into one
// buffer, items with the same key are deduplicated, and the memo is read
// as each distinct key is found; only its misses are decoded, and only
// their keys become strings, as only they outlive the batch (DESIGN §7).
// (2) The misses go to the fleet hook together, once. (3) What neither the
// memo nor a peer held evaluates on at most Workers goroutines, each key
// under the normal singleflight and admission discipline (so a batch can
// only stop paying for duplicates). Item failures are per-item. A ref item
// (see itemRef) shares its referent's key and result, and a request that
// carried refs is answered with them; a held item (see heldPrefix) whose
// answer is the 200 it was held against answers held, to a binary caller.
// The answer frame is written item by item from the keys' results: no
// answer item is built for more than the time it takes to lay it out.
func (s *Server) handleEvalBatch(r *http.Request, frame []byte, out *bytes.Buffer) error {
	keyBuf := keyBufs.Get().(*[]byte)
	c := newCoder(keying, nil, frame)
	c.key = *keyBuf
	c.header(kindBatchRequest)
	scratch := batchScratchPool.Get().(*batchScratch)
	defer scratch.release()
	shared := batchItems(c, &scratch.shared)
	byHash, cold, results, held := scratch.byHash, scratch.cold, scratch.results, scratch.held
	refs := false
	for i := 0; i < len(shared) && !c.failed(); i++ {
		if j := c.itemRef(i, i); j != i {
			shared[i] = shared[j]
			refs = true
			continue
		}
		if tag := c.heldPrefix(); tag != 0 {
			if len(held) == 0 {
				held = slices.Grow(held, len(shared))[:len(shared)]
			}
			held[i] = tag
		}
		var k keyedItem
		start := len(c.key)
		if s.keyItem(c, &k); c.failed() {
			break
		}
		shared[i] = len(results)
		kr := keyResult{start: start, end: len(c.key), first: i, name: k.name, method: k.method}
		if k.rej != nil {
			kr.err = k.rej
			results = append(results, kr)
			continue
		}
		kr.version, kr.mode = k.entry.version, k.opts.Mode.String()
		key := c.key[start:]
		h := maphash.Bytes(keySeed, key)
		if j, ok := byHash[h]; ok && bytes.Equal(key, c.key[results[j].start:results[j].end]) {
			c.key = c.key[:start]
			shared[i] = j
			continue
		}
		byHash[h] = len(results)
		if w := wireOf(s.memo, key); w != nil {
			kr.out = evalOutcome{wire: w, memoHit: true}
		} else {
			cold = append(cold, miss{result: len(results), k: k, key: string(key)})
		}
		results = append(results, kr)
	}
	scratch.cold, scratch.results, scratch.held = cold, results, held
	c.done()
	keys := c.key
	err := c.release()
	defer putKeys(keyBuf, keys)
	switch {
	case err != nil:
		return reject(http.StatusBadRequest, "bad request body: %v", err)
	case len(shared) == 0:
		return reject(http.StatusBadRequest, "empty batch")
	}
	atomic.AddUint64(&s.counts.BatchItems, uint64(len(shared)))

	coldKeys := make([]string, len(cold))
	for j := range cold {
		coldKeys[j] = cold[j].key
	}
	decodeBodies(frame, cold)

	var found []*WireDist // nil standalone or with no peer to ask: every cold key evaluates
	if lookup := s.peerLookup.Load(); lookup != nil && len(cold) > 0 {
		found = s.probePeers(r.Context(), time.Time{}, *lookup, coldKeys)
	}
	// The cold keys' deadlines are set before any key waits, so the
	// deadline bounds the batch.
	todo := cold[:0] // the keys no peer held, in batch order
	for j := range cold {
		c := cold[j]
		if found != nil && found[j] != nil {
			results[c.result].out = evalOutcome{wire: found[j], memoHit: true, peer: true}
			continue
		}
		c.deadline = s.deadlineFor(c.k.deadlineMs)
		todo = append(todo, c)
	}
	// They evaluate, through evalMiss, on at most Workers goroutines (this
	// one among them) taking keys in order: one goroutine per key queued
	// every key in admission at once, and shed its own past QueueLimit. The
	// cost: a key waiting on another request's flight holds a goroutine.
	var next atomic.Int64
	evalCold := func() {
		for n := int(next.Add(1) - 1); n < len(todo); n = int(next.Add(1) - 1) {
			kr := &results[todo[n].result]
			kr.out, kr.err = s.evalMiss(r.Context(), &todo[n], nil)
		}
	}
	var wg sync.WaitGroup
	for range min(s.cfg.Workers, len(todo)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			evalCold()
		}()
	}
	evalCold()
	wg.Wait()

	// Item i answers as its key's result. A duplicate — an item whose key
	// an earlier one named first, or a ref to such an item — is deduped,
	// and goes as a ref to that first item when the request carried refs.
	who, binary := clientID(r), AcceptsBinary(r)
	c = newCoder(encoding, out, nil)
	c.header(kindBatchResponse)
	n := len(shared)
	c.count(&n, 0)
	for i, j := range shared {
		kr := &results[j]
		it := BatchEvalItem{Interface: kr.name, Version: kr.version, Method: kr.method, Mode: kr.mode,
			Deduped: kr.first != i && kr.mode != ""}
		if kr.err != nil {
			it.Status, it.Error = evalStatus(kr.err), kr.err.Error()
		} else {
			w := kr.out.wire
			it.Status, it.Dist = http.StatusOK, w
			it.Cached, it.Coalesced, it.Peer = kr.out.memoHit, kr.out.coalesced, kr.out.peer
			it.held = binary && len(held) > 0 && held[i] != 0 && w.tag == held[i]
			s.ledger.record(who, kr.name, w.Mean, w.P99, w.Max, kr.out.memoHit || kr.out.coalesced || it.Deduped)
		}
		if refs && it.Deduped {
			c.itemRef(i, kr.first)
		} else {
			c.batchItem(&it, it.Dist)
		}
	}
	return c.release()
}

// handleCacheLookup answers a fleet peer's memo probe. It is a pure read
// of the memo — no evaluation, no admission, no singleflight — so it
// stays cheap under fan-out and, deliberately, keeps working while the
// node drains: a draining node stops taking eval work but keeps donating
// its warm cache until it is torn down (that is what makes rebalancing
// free for warm keys). A probe is remote input: its key count is capped
// like a batch's, and the answer stops carrying distributions once its
// binary frame would pass MaxBodyBytes — the keys past that point answer
// as misses, which is always a safe answer (the asker evaluates), and so
// does the memo summary a probe may ask for (the asker probes again).
func (s *Server) handleCacheLookup(_ *http.Request, frame []byte, out *bytes.Buffer) error {
	req, err := CacheLookupEndpoint.Request.Decode(BinaryContentType, frame)
	switch {
	case err != nil:
		return reject(http.StatusBadRequest, "bad request body: %v", err)
	case len(req.Keys) == 0:
		return reject(http.StatusBadRequest, "empty key list")
	case len(req.Keys) > maxBatch:
		return reject(http.StatusBadRequest, "probe of %d keys exceeds server cap %d", len(req.Keys), maxBatch)
	}
	for _, key := range req.Keys {
		if key == "" {
			return reject(http.StatusBadRequest, "empty key")
		}
	}
	resp := &CacheLookupResponse{Results: make([]CacheLookupResult, len(req.Keys)), Node: s.cfg.NodeID}
	// Frame overhead: header, node, result count, a flag byte per key.
	budget, hits := MaxBodyBytes-(13+len(s.cfg.NodeID)+len(req.Keys)), 0
	for i, key := range req.Keys {
		w := wireOf(s.memo, key)
		if w == nil {
			continue
		}
		if budget -= 8 * (len(w.Support) + len(w.Probs) + 6); budget < 0 {
			break
		}
		resp.Results[i] = CacheLookupResult{Found: true, Dist: w}
		hits++
	}
	if req.Summary && budget >= 0 {
		if sum := s.memo.summary(); 4+4*len(sum) <= budget { // a count, then 4 bytes each
			resp.Summary = sum
		}
	}
	atomic.AddUint64(&s.counts.PeerServed, uint64(len(req.Keys)))
	atomic.AddUint64(&s.counts.PeerServedHits, uint64(hits))
	return CacheLookupEndpoint.Response.Encode(out, BinaryContentType, resp)
}

// handleStats answers /v1/stats: a snapshot of the node's counters, and
// the readings of the parts that keep their own.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	resp := StatsResponse{
		NodeID:     s.cfg.NodeID,
		Interfaces: s.reg.Len(),
		Workers:    s.cfg.Workers,
		QueueLimit: s.cfg.QueueLimit,
		Draining:   s.Draining(),
		InFlight:   s.InFlight(),
		Latency:    s.lat.snapshot(),
	}
	counters.Add(&resp.nodeCounters, &s.counts)
	resp.ProgramStats = core.ReadProgramStats()
	resp.MemoHits, resp.MemoMisses, resp.MemoEvictions, resp.MemoLen = s.memo.Stats()
	adm := s.adm.read()
	resp.ShedQueueFull, resp.ShedDeadline = adm.ShedQueueFull, adm.ShedDeadline
	resp.QueueDepth, resp.PeakQueue = s.adm.depth()
	resp.Clients, resp.ByIface = s.ledger.Snapshot()
	resp.AttribJ, resp.AttribP99J = attributed(resp.Clients)
	if s.layer != nil {
		ls := s.layer.Stats()
		resp.LayerEnabled = true
		resp.LayerHits = ls.Hits
		resp.LayerMisses = ls.Misses
		resp.LayerEvictions = ls.Evictions
		resp.LayerLen = ls.Len
		resp.LayerInvalidations = ls.Invalidations
	}
	resp.deriveHitRates()
	WriteJSON(w, http.StatusOK, resp)
}
