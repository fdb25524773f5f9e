package eisvc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/cache"
	"energyclarity/internal/core"
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
	// MaxEnumLimit likewise caps EvalRequest.EnumLimit (default 1<<20).
	MaxEnumLimit int
	// LayerCapacity bounds the compositional layer cache shared by all
	// evaluations (default core.DefaultLayerCapacity; 0 keeps the default —
	// use NoLayerCache to disable).
	LayerCapacity int
	// NoLayerCache disables the compositional layer cache: evaluations
	// recompute every sub-interface result. Mostly for benchmarking the
	// cache itself.
	NoLayerCache bool
	// MaxBatch caps the number of items in one /v1/evalbatch request
	// (default 1024).
	MaxBatch int
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
	defaultTo(&c.MaxEnumLimit, 1<<20)
	defaultTo(&c.LayerCapacity, core.DefaultLayerCapacity)
	defaultTo(&c.MaxBatch, 1024)
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
	cfg    Config
	reg    *Registry
	memo   *Memo
	layer  *core.LayerCache // nil when Config.NoLayerCache
	flight cache.Flight[evalOutcome]
	adm    *admission
	ledger *Ledger
	lat    *latencies
	mux    *http.ServeMux

	evalRequests  atomic.Uint64
	evaluations   atomic.Uint64
	coalesced     atomic.Uint64
	batchRequests atomic.Uint64
	batchItems    atomic.Uint64

	// Auto-optimizer sweeps (POST /v1/optimize): requests served, the
	// evaluations those sweeps issued, and how many of them a cache
	// answered (memo hit, coalesced, or peer).
	optimizeRequests   atomic.Uint64
	optimizeEvals      atomic.Uint64
	optimizeMemoServed atomic.Uint64

	// Peer cache forwarding (see SetPeerLookup): outbound lookups this
	// node issued on memo misses, and inbound /v1/cachelookup traffic it
	// answered for other nodes.
	peerLookup     atomic.Pointer[PeerLookup]
	peerHits       atomic.Uint64
	peerMisses     atomic.Uint64
	peerServed     atomic.Uint64
	peerServedHits atomic.Uint64

	// Fleet-resilience counters, aggregated from the client-reported
	// X-Eisvc-Attempt / X-Eisvc-Hedge headers.
	retriedRequests atomic.Uint64
	retryAttempts   atomic.Uint64
	hedgedRequests  atomic.Uint64

	// Drain state: once draining, evaluation endpoints shed with 503 and
	// idle is closed when the last in-flight evaluation finishes.
	drainMu      sync.Mutex
	draining     bool
	inflight     int
	idle         chan struct{}
	idleOnce     sync.Once
	shedDraining atomic.Uint64

	// Continuous calibration (see drift.go): the attached controller plus
	// loop counters surfaced at /v1/drift and /v1/stats.
	driftCtl       atomic.Pointer[drift.Controller]
	driftSteps     atomic.Uint64
	driftErrors    atomic.Uint64
	recalibrations atomic.Uint64
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
	}
	if !cfg.NoLayerCache {
		s.layer = core.NewLayerCache(cfg.LayerCapacity)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/drift", s.handleDrift)
	s.mux.HandleFunc("POST /v1/register", s.handleRegister)
	s.mux.HandleFunc("GET /v1/interfaces", s.handleList)
	s.mux.HandleFunc("GET /v1/interfaces/{name}", s.handleDescribe)
	s.mux.HandleFunc("GET /v1/interfaces/{name}/source", s.handleSource)
	s.mux.HandleFunc("POST /v1/rebind", s.handleRebind)
	serve(s, EvalEndpoint, &s.evalRequests, s.handleEval)
	serve(s, EvalBatchEndpoint, &s.batchRequests, s.handleEvalBatch)
	serve(s, OptimizeEndpoint, &s.optimizeRequests, s.handleOptimize)
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

// NodeID returns the configured fleet node name ("" standalone).
func (s *Server) NodeID() string { return s.cfg.NodeID }

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
// Found.
type PeerAnswer struct {
	Dist  energy.Dist
	Found bool
}

// PeerLookup asks the rest of the fleet for memoized answers by their
// canonical memo keys — every key a batch missed locally in one call, a
// single eval's miss as a list of one. It returns one answer per key, in
// order, Found only on an exact hit; errors and misses are both "not
// found". Implementations should bound their own time (the fleet uses a
// short per-request timeout): the caller evaluates nothing until the
// lookup returns.
type PeerLookup func(ctx context.Context, keys []string) []PeerAnswer

// SetPeerLookup installs (or, with nil, removes) the fleet peer-cache
// hook. When set, a memo miss consults peers before paying for a local
// evaluation; a peer hit is stored in the local memo, so each key is
// fetched across the fleet at most once per node.
func (s *Server) SetPeerLookup(fn PeerLookup) {
	if fn == nil {
		s.peerLookup.Store(nil)
		return
	}
	s.peerLookup.Store(&fn)
}

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
	s.shedDraining.Add(1)
	w.Header().Set("Retry-After", "1")
	WriteError(w, http.StatusServiceUnavailable, "eisvc: draining — not admitting new evaluations")
}

// noteResilience aggregates the client-reported retry/hedge headers so
// /v1/stats shows fleet-wide resilience behavior.
func (s *Server) noteResilience(r *http.Request) {
	if v := r.Header.Get("X-Eisvc-Attempt"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 1 {
			s.retriedRequests.Add(1)
			s.retryAttempts.Add(uint64(n - 1))
		}
	}
	if r.Header.Get("X-Eisvc-Hedge") == "1" {
		s.hedgedRequests.Add(1)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.NodeID != "" {
		w.Header().Set("X-Eisvc-Node", s.cfg.NodeID)
	}
	s.mux.ServeHTTP(w, r)
}

// serve registers one endpoint-table entry on the mux: read (bounded,
// decoded by Content-Type) → handle → write (encoded per Accept), a
// handler error going out through evalStatus. A non-nil counter marks an
// evaluation route and adds what all of those share: count the request,
// note its resilience headers, pass the drain gate (503 once draining),
// and record the latency of every answered request.
func serve[Req, Resp any](s *Server, ep *Endpoint[Req, Resp], counter *atomic.Uint64, handle func(*http.Request, *Req) (*Resp, error)) {
	s.mux.HandleFunc("POST "+ep.Path, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if counter != nil {
			counter.Add(1)
			s.noteResilience(r)
			if !s.beginEval() {
				s.shedForDrain(w)
				return
			}
			defer s.settle(-1)
		}
		req := ep.Read(w, r)
		if req == nil {
			return
		}
		resp, err := handle(r, req)
		if err != nil {
			writeEvalError(w, err)
			return
		}
		if counter != nil {
			s.lat.observe(float64(time.Since(start)) / float64(time.Millisecond))
		}
		ep.Write(w, r, resp)
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

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "interfaces": s.reg.Len()})
}

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
// memo, or (peer) from another fleet node's warm cache.
type evalOutcome struct {
	wire    *WireDist
	memoHit bool
	peer    bool
}

// probePeers hands keys — local memo misses — to the fleet hook in one
// call, installs what the fleet held in the local memo (so each key
// crosses the fleet at most once per node) and counts hits and misses per
// key. It returns one answer per key, nil where no peer held it.
func (s *Server) probePeers(ctx context.Context, lookup PeerLookup, keys []string) []*WireDist {
	found := make([]*WireDist, len(keys))
	hits := 0
	for i, a := range lookup(ctx, keys) {
		if a.Found {
			found[i] = s.memo.put(keys[i], a.Dist)
			hits++
		}
	}
	s.peerHits.Add(uint64(hits))
	s.peerMisses.Add(uint64(len(keys) - hits))
	return found
}

// evalShared resolves one canonicalized evaluation: the memo, and on a
// miss evalMiss with peer probing on, waiting at most wait for a flight or
// a worker slot. /v1/eval and the optimize sweep come through here; a
// batch reads the memo and probes the fleet for all of its keys at once
// and enters at evalMiss.
func (s *Server) evalShared(ctx context.Context, wait time.Duration, key string, iface *core.Interface, method string, args []core.Value, opts core.EvalOptions) (out evalOutcome, coalesced bool, err error) {
	if w := s.memo.wire(key); w != nil {
		return evalOutcome{wire: w, memoHit: true}, false, nil
	}
	waitCtx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	return s.evalMiss(ctx, waitCtx, key, iface, method, args, opts, s.peerLookup.Load())
}

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
// slot within one shard chunk instead of burning it to completion. waitCtx
// — ctx plus the request's queue deadline — additionally bounds the flight
// and queue waits only: once running, an evaluation is bounded by the
// samples/enum caps (and by ctx), not by the queue deadline. The caller
// makes and cancels waitCtx, so the cold keys of one batch wait under one
// timer instead of one each. A cancelled coalesced leader fails its
// followers too (they see context.Canceled as a 503 and may retry).
func (s *Server) evalMiss(ctx, waitCtx context.Context, key string, iface *core.Interface, method string, args []core.Value, opts core.EvalOptions, probe *PeerLookup) (out evalOutcome, coalesced bool, err error) {
	out, coalesced, err = s.flight.Do(waitCtx, key, func() (evalOutcome, error) {
		if w := s.memo.wire(key); w != nil {
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
			if w := s.probePeers(waitCtx, *probe, []string{key})[0]; w != nil {
				return evalOutcome{wire: w, memoHit: true, peer: true}, nil
			}
		}
		release, err := s.adm.acquire(waitCtx)
		if err != nil {
			return evalOutcome{}, err
		}
		defer release()
		opts.Layer = s.layer // nil (disabled) is valid
		s.evaluations.Add(1)
		d, evalErr := iface.EvalCtx(ctx, method, args, opts)
		if evalErr != nil {
			if errors.Is(evalErr, context.Canceled) || errors.Is(evalErr, context.DeadlineExceeded) {
				return evalOutcome{}, evalErr
			}
			return evalOutcome{}, &evalFailed{err: evalErr}
		}
		return evalOutcome{wire: s.memo.put(key, d)}, nil
	})
	if coalesced {
		s.coalesced.Add(1)
	}
	return out, coalesced, err
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

// checkEvalRequest validates caps, parses the mode and resolves the
// interface; it returns those pieces or the rejection to answer with. The
// arguments need nothing: req.Args is what the engine takes.
func (s *Server) checkEvalRequest(req *EvalRequest) (iface *core.Interface, version uint64, opts core.EvalOptions, rej *rejection) {
	if req.Samples > s.cfg.MaxSamples {
		return nil, 0, core.EvalOptions{}, reject(http.StatusBadRequest,
			"samples %d exceeds server cap %d", req.Samples, s.cfg.MaxSamples)
	}
	if req.EnumLimit > s.cfg.MaxEnumLimit {
		return nil, 0, core.EvalOptions{}, reject(http.StatusBadRequest,
			"enum_limit %d exceeds server cap %d", req.EnumLimit, s.cfg.MaxEnumLimit)
	}
	opts, err := req.Options()
	if err != nil {
		return nil, 0, core.EvalOptions{}, reject(http.StatusBadRequest, "%v", err)
	}
	iface, version, ok := s.reg.Get(req.Interface)
	if !ok {
		return nil, 0, core.EvalOptions{}, reject(http.StatusNotFound, "no interface %q", req.Interface)
	}
	return iface, version, opts, nil
}

// deadlineFor returns the queue-wait bound for a request. DeadlineMs <= 0
// (including the client-side NoDeadline sentinel, which well-behaved
// clients normalize to 0 before sending) means the server default.
func (s *Server) deadlineFor(req *EvalRequest) time.Duration {
	if req.DeadlineMs > 0 {
		return time.Duration(req.DeadlineMs) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

func (s *Server) handleEval(r *http.Request, req *EvalRequest) (*EvalResponse, error) {
	iface, version, opts, rej := s.checkEvalRequest(req)
	if rej != nil {
		return nil, rej
	}
	key := memoKey(req.Interface, version, req.Method, req.Args, opts)
	out, coalesced, err := s.evalShared(r.Context(), s.deadlineFor(req), key, iface, req.Method, req.Args, opts)
	if err != nil {
		return nil, err
	}
	w := out.wire
	s.ledger.record(clientID(r), req.Interface, w.Mean, w.P99, w.Max, out.memoHit || coalesced)
	return &EvalResponse{
		Interface: req.Interface,
		Version:   version,
		Method:    req.Method,
		Mode:      opts.Mode.String(),
		Dist:      *w, // the vectors stay the memo entry's: read-only
		Cached:    out.memoHit,
		Coalesced: coalesced,
		Peer:      out.peer,
		Node:      s.cfg.NodeID,
	}, nil
}

// handleEvalBatch evaluates a slice of requests in one round trip, in
// three phases. (1) Every item is canonicalized and its memo key read
// inline; items that canonicalize to the same key are deduplicated — one
// answer serves all of them. (2) The keys the memo did not hold go to the
// fleet hook together, once. (3) What neither the memo nor a peer held
// evaluates concurrently, each key under the normal singleflight and
// admission discipline (so a batch cannot bypass the worker-slot and
// queue bounds; it can only stop paying for duplicates). Item failures
// are per-item: a bad or shed item does not fail the batch.
func (s *Server) handleEvalBatch(r *http.Request, req *BatchEvalRequest) (*BatchEvalResponse, error) {
	if len(req.Requests) == 0 {
		return nil, reject(http.StatusBadRequest, "empty batch")
	}
	if len(req.Requests) > s.cfg.MaxBatch {
		return nil, reject(http.StatusBadRequest, "batch of %d exceeds server cap %d", len(req.Requests), s.cfg.MaxBatch)
	}
	s.batchItems.Add(uint64(len(req.Requests)))

	// results holds one entry per distinct key; shared[i] is the index of
	// the entry item i rides on — its own, or for a duplicate the one the
	// key's first item made — and -1 for a rejected item. cold is what an
	// entry the memo missed needs to evaluate; coldKeys[j] is cold[j]'s key.
	type keyResult struct {
		out       evalOutcome
		coalesced bool
		err       error
	}
	type coldKey struct {
		result int
		it     *EvalRequest
		iface  *core.Interface
		opts   core.EvalOptions
	}
	items := make([]BatchEvalItem, len(req.Requests))
	shared := make([]int, len(req.Requests))
	results := make([]keyResult, 0, len(req.Requests))
	byKey := make(map[string]int, len(req.Requests))
	var cold []coldKey
	var coldKeys []string
	// One buffer canonicalizes every item; a key becomes a string only the
	// first time the batch sees it (a duplicate's lookup converts nothing).
	var keyArr [192]byte
	keyBuf := keyArr[:0]
	for i := range req.Requests {
		it := &req.Requests[i]
		items[i] = BatchEvalItem{Interface: it.Interface, Method: it.Method}
		shared[i] = -1
		iface, version, opts, rej := s.checkEvalRequest(it)
		if rej != nil {
			items[i].Status, items[i].Error = rej.status, rej.msg
			continue
		}
		items[i].Version = version
		items[i].Mode = opts.Mode.String()
		keyBuf = appendMemoKey(keyBuf[:0], it.Interface, version, it.Method, it.Args, opts)
		k, dup := byKey[string(keyBuf)]
		if dup {
			items[i].Deduped = true
		} else {
			key := string(keyBuf)
			k = len(results)
			byKey[key] = k
			results = append(results, keyResult{})
			if w := s.memo.wire(key); w != nil {
				results[k].out = evalOutcome{wire: w, memoHit: true}
			} else {
				cold = append(cold, coldKey{k, it, iface, opts})
				coldKeys = append(coldKeys, key)
			}
		}
		shared[i] = k
	}

	var found []*WireDist // nil standalone: every cold key evaluates
	if lookup := s.peerLookup.Load(); lookup != nil && len(cold) > 0 {
		found = s.probePeers(r.Context(), *lookup, coldKeys)
	}
	// The cold keys wait for a flight or a worker slot under one context per
	// distinct queue deadline — one, unless items carry their own.
	var waits map[time.Duration]context.Context
	var wg sync.WaitGroup
	for j := range cold {
		c, kr := &cold[j], &results[cold[j].result]
		if found != nil && found[j] != nil {
			kr.out = evalOutcome{wire: found[j], memoHit: true, peer: true}
			continue
		}
		wait := s.deadlineFor(c.it)
		waitCtx := waits[wait]
		if waitCtx == nil {
			var cancel context.CancelFunc
			waitCtx, cancel = context.WithTimeout(r.Context(), wait)
			defer cancel()
			if waits == nil {
				waits = map[time.Duration]context.Context{}
			}
			waits[wait] = waitCtx
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			kr.out, kr.coalesced, kr.err = s.evalMiss(r.Context(), waitCtx, coldKeys[j], c.iface, c.it.Method, c.it.Args, c.opts, nil)
		}()
	}
	wg.Wait()

	who := clientID(r)
	for i := range items {
		if shared[i] < 0 {
			continue
		}
		kr := &results[shared[i]]
		if kr.err != nil {
			items[i].Status, items[i].Error = evalStatus(kr.err), kr.err.Error()
			continue
		}
		w := kr.out.wire
		items[i].Status = http.StatusOK
		items[i].Dist = w
		items[i].Cached = kr.out.memoHit
		items[i].Coalesced = kr.coalesced
		items[i].Peer = kr.out.peer
		s.ledger.record(who, items[i].Interface, w.Mean, w.P99, w.Max,
			kr.out.memoHit || kr.coalesced || items[i].Deduped)
	}
	return &BatchEvalResponse{Results: items}, nil
}

// handleCacheLookup answers a fleet peer's memo probe. It is a pure read
// of the memo — no evaluation, no admission, no singleflight — so it
// stays cheap under fan-out and, deliberately, keeps working while the
// node drains: a draining node stops taking eval work but keeps donating
// its warm cache until it is torn down (that is what makes rebalancing
// free for warm keys). A probe is remote input: its key count is capped
// like a batch's, and the answer stops carrying distributions once its
// binary frame would pass MaxBodyBytes — the keys past that point answer
// as misses, which is always a safe answer (the asker evaluates).
func (s *Server) handleCacheLookup(_ *http.Request, req *CacheLookupRequest) (*CacheLookupResponse, error) {
	if len(req.Keys) == 0 {
		return nil, reject(http.StatusBadRequest, "empty key list")
	}
	if len(req.Keys) > s.cfg.MaxBatch {
		return nil, reject(http.StatusBadRequest, "probe of %d keys exceeds server cap %d", len(req.Keys), s.cfg.MaxBatch)
	}
	for _, key := range req.Keys {
		if key == "" {
			return nil, reject(http.StatusBadRequest, "empty key")
		}
	}
	resp := &CacheLookupResponse{Results: make([]CacheLookupResult, len(req.Keys)), Node: s.cfg.NodeID}
	// Frame overhead: header, node, result count, a flag byte per key.
	budget, hits := MaxBodyBytes-(13+len(s.cfg.NodeID)+len(req.Keys)), 0
	for i, key := range req.Keys {
		w := s.memo.wire(key)
		if w == nil {
			continue
		}
		if budget -= 8 * (len(w.Support) + len(w.Probs) + 6); budget < 0 {
			break
		}
		resp.Results[i] = CacheLookupResult{Found: true, Dist: w}
		hits++
	}
	s.peerServed.Add(uint64(len(req.Keys)))
	s.peerServedHits.Add(uint64(hits))
	return resp, nil
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	hits, misses, evictions, size := s.memo.Stats()
	queueFull, deadline := s.adm.sheds()
	depth, peak := s.adm.depth()
	clients, ifaces := s.ledger.Snapshot()
	resp := StatsResponse{
		Interfaces:    s.reg.Len(),
		EvalRequests:  s.evalRequests.Load(),
		Evaluations:   s.evaluations.Load(),
		MemoHits:      hits,
		MemoMisses:    misses,
		MemoEvictions: evictions,
		MemoLen:       size,
		ShedQueueFull: queueFull,
		ShedDeadline:  deadline,
		QueueDepth:    depth,
		PeakQueue:     peak,
		Workers:       s.cfg.Workers,
		QueueLimit:    s.cfg.QueueLimit,
		Latency:       s.lat.snapshot(),
		Clients:       clients,
		ByIface:       ifaces,
	}
	resp.NodeID = s.cfg.NodeID
	resp.Coalesced = s.coalesced.Load()
	resp.BatchRequests = s.batchRequests.Load()
	resp.BatchItems = s.batchItems.Load()
	resp.OptimizeRequests = s.optimizeRequests.Load()
	resp.OptimizeEvals = s.optimizeEvals.Load()
	resp.OptimizeMemoServed = s.optimizeMemoServed.Load()
	resp.PeerHits = s.peerHits.Load()
	resp.PeerMisses = s.peerMisses.Load()
	resp.PeerServed = s.peerServed.Load()
	resp.PeerServedHits = s.peerServedHits.Load()
	ps := core.ReadProgramStats()
	resp.CompiledPrograms = ps.CompiledPrograms
	resp.CompileFallbacks = ps.CompileFallbacks
	resp.CompiledEvals = ps.CompiledEvals
	resp.Specializations = ps.Specializations
	resp.Draining = s.Draining()
	resp.InFlight = s.InFlight()
	resp.ShedDraining = s.shedDraining.Load()
	resp.RetriedRequests = s.retriedRequests.Load()
	resp.RetryAttempts = s.retryAttempts.Load()
	resp.HedgedRequests = s.hedgedRequests.Load()
	if ctl := s.DriftController(); ctl != nil {
		dst := ctl.Status()
		resp.DriftEnabled = true
		resp.DriftState = dst.Monitor.State.String()
		resp.DriftSamples = dst.Monitor.Samples
		resp.DriftDetections = dst.Detections
		resp.DriftEnergyBugs = dst.EnergyBugs
		resp.DriftGeneration = dst.Generations
		resp.RecalInProgress = dst.Recalibrating
		resp.Recalibrations = s.recalibrations.Load()
		resp.DriftSteps = s.driftSteps.Load()
		resp.DriftStepErrors = s.driftErrors.Load()
	}
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
	for _, e := range clients {
		resp.AttribJ += e.MeanJ
		resp.AttribP99J += e.P99J
	}
	WriteJSON(w, http.StatusOK, resp)
}
