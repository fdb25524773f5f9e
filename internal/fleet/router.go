package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"energyclarity/internal/eisvc"
)

// Router fronts a Fleet with the same wire API as a single daemon, so
// every eisvc.Client works against a fleet unchanged. Evaluations route
// to their stack's ring owners (spread across replicas by a request
// hash, so identical hot keys still fan over R nodes); a dead, draining,
// or shedding owner fails over to the next replica and then to any live
// node — correctness never depends on placement, because the replicated
// registry means every node can evaluate every stack; the ring only
// decides where caches get warm. Registry mutations serialize through
// the fleet primary and replicate before the response returns.
type Router struct {
	f   *Fleet
	fwd *http.Client
	aff *affinity

	routed       atomic.Uint64 // evaluation requests routed
	failovers    atomic.Uint64 // candidates skipped after a failure
	exhausted    atomic.Uint64 // requests no candidate could serve
	affinityHits atomic.Uint64 // evals steered to their last-serving node
}

// NewRouter returns a router over the fleet.
func NewRouter(f *Fleet) *Router {
	return &Router{
		f: f,
		// One pooled transport serves all nodes; MaxIdleConnsPerHost is the
		// satellite tuning that keeps fan-out off the dialer's hot path.
		fwd: &http.Client{Transport: eisvc.NewTransport(eisvc.TransportTuning{})},
		aff: newAffinity(0),
	}
}

// RouterCounters is a snapshot of the router's routing counters.
type RouterCounters struct {
	Routed       uint64 `json:"routed"`
	Failovers    uint64 `json:"failovers"`
	Exhausted    uint64 `json:"exhausted"`
	AffinityHits uint64 `json:"affinity_hits"`
}

// Counters returns the router's routing counters.
func (rt *Router) Counters() RouterCounters {
	return RouterCounters{
		Routed:       rt.routed.Load(),
		Failovers:    rt.failovers.Load(),
		Exhausted:    rt.exhausted.Load(),
		AffinityHits: rt.affinityHits.Load(),
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	post := r.Method == http.MethodPost
	switch path := r.URL.Path; {
	case post && path == eisvc.EvalEndpoint.Path:
		routeKeyed(rt, w, r, eisvc.EvalEndpoint, evalKey)
	case post && path == eisvc.EvalBatchEndpoint.Path:
		rt.handleEvalBatch(w, r)
	case post && path == eisvc.OptimizeEndpoint.Path:
		routeKeyed(rt, w, r, eisvc.OptimizeEndpoint, optimizeKey)
	case post && (path == "/v1/register" || path == "/v1/rebind"):
		rt.handleMutate(w, r)
	case r.Method == http.MethodGet && path == "/v1/stats":
		eisvc.WriteJSON(w, http.StatusOK, rt.Stats(r.Context()))
	default:
		// Reads (healthz, interfaces, drift, cachelookup, ...) are served
		// identically by every node thanks to registry replication.
		rt.forwardToAnyLive(w, r)
	}
}

// --- forwarding machinery ---

// forward replays one request body to a node and returns the raw
// response. The inbound request's identity and resilience headers ride
// along so the serving node's ledger and stats attribute correctly.
func (rt *Router) forward(ctx context.Context, n *Node, r *http.Request, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, r.Method, n.URL+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for _, h := range []string{"Content-Type", "Accept", "X-Eisvc-Client", "X-Eisvc-Attempt", "X-Eisvc-Hedge"} {
		if v := r.Header.Get(h); v != "" {
			req.Header.Set(h, v)
		}
	}
	return rt.fwd.Do(req)
}

// relay copies a node's response to the client verbatim (plus the
// X-Eisvc-Node attribution the node stamped).
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "X-Eisvc-Node", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// shedFailover reports whether a response should push the router to the
// next candidate: the node refused under load (429), or is draining or
// otherwise unavailable (503). Other statuses — including request errors
// like 400/404/422 — are the answer; every node would say the same.
func shedFailover(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// tryCandidates forwards body to each candidate in order until answer
// accepts a response (answer owns its body and must close it). A shed
// response moves on without being offered, except from the last
// candidate — there the shed is the best answer the fleet has. A false
// return means every candidate was dead, shedding, or declined.
func (rt *Router) tryCandidates(r *http.Request, body []byte, candidates []*Node, answer func(n *Node, resp *http.Response) bool) bool {
	for i, n := range candidates {
		if i > 0 {
			rt.failovers.Add(1)
		}
		resp, err := rt.forward(r.Context(), n, r, body)
		if err != nil {
			continue // dead or partitioned node: next candidate
		}
		if shedFailover(resp.StatusCode) && i < len(candidates)-1 {
			resp.Body.Close()
			continue
		}
		if answer(n, resp) {
			return true
		}
	}
	return false
}

// writeExhausted answers when no node could serve. Deliberately a 503
// with no Retry-After: a retrying client applies its own short backoff
// instead of a server-imposed full-second sleep, which matters when the
// fleet is healing (a kill's replacement replica warms in milliseconds).
func (rt *Router) writeExhausted(w http.ResponseWriter, what string) {
	rt.exhausted.Add(1)
	eisvc.WriteError(w, http.StatusServiceUnavailable, "fleet: no node could serve %s", what)
}

// candidates orders the nodes to try: the preferred IDs that are live,
// starting from prefer[spread mod len] and wrapping, then every other live
// node as a last resort.
func (rt *Router) candidates(prefer []string, spread uint64) []*Node {
	var out []*Node
	seen := map[string]bool{}
	n := uint64(len(prefer))
	for i := range prefer {
		id := prefer[(spread%n+uint64(i))%n]
		if n, ok := rt.f.Node(id); ok && n.Live() {
			seen[id] = true
			out = append(out, n)
		}
	}
	for _, n := range rt.f.LiveNodes() {
		if !seen[n.ID] {
			out = append(out, n)
		}
	}
	return out
}

// candidatesFor orders the nodes to try for one evaluation: the stack's
// ring owners first — rotated by the request hash, so a hot stack's
// traffic spreads over all R replicas instead of hammering the primary —
// then every other live node.
func (rt *Router) candidatesFor(stack string, spread uint64) []*Node {
	return rt.candidates(rt.f.OwnersOf(stack), spread)
}

// spreadHash fingerprints one evaluation request so repeated identical
// requests land on the same replica (maximizing memo locality) while
// distinct requests for the same stack spread across its owners.
func spreadHash(req *eisvc.EvalRequest) uint64 {
	var b bytes.Buffer
	b.WriteString(req.Method)
	b.WriteByte('|')
	b.WriteString(req.Mode)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(req.Seed, 10))
	b.WriteByte('|')
	// encoding/json sorts map keys, so identical args marshal identically.
	if raw, err := json.Marshal(req.Args); err == nil {
		b.Write(raw)
	}
	if len(req.Fixed) > 0 {
		if raw, err := json.Marshal(req.Fixed); err == nil {
			b.Write(raw)
		}
	}
	return hash64(b.String())
}

// --- handlers ---

// routeKeyed serves a route whose whole request goes to one node chosen
// by a key of the decoded request. The body is decoded once, for
// placement only, and the caller's exact bytes are forwarded: both codecs
// decode to the same Go value shapes, so the key functions agree and a
// mixed JSON/binary client population still lands identical requests on
// the same replica. A body that does not decode is the router's 400.
func routeKeyed[Req, Resp any](rt *Router, w http.ResponseWriter, r *http.Request, ep *eisvc.Endpoint[Req, Resp], keyOf func(*Req) (stack string, spread uint64)) {
	rt.routed.Add(1)
	// Not pooled: an abandoned forward's transport goroutine may still be
	// reading these bytes after the walk has moved on.
	var body bytes.Buffer
	if !eisvc.ReadBody(w, r, &body) {
		return
	}
	req, err := ep.Request.Decode(r.Header.Get("Content-Type"), body.Bytes())
	if err != nil {
		eisvc.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	stack, spread := keyOf(req)
	rt.routeAffine(w, r, body.Bytes(), stack, spread, strings.TrimPrefix(ep.Path, "/v1/")+" of "+stack)
}

func evalKey(req *eisvc.EvalRequest) (string, uint64) { return req.Interface, spreadHash(req) }

// optimizeKey routes a whole auto-optimizer sweep to one node — the
// stack's owner under the sweep fingerprint — so a repeat sweep lands
// where its per-evaluation memos are warm. A dead or shedding owner
// fails over like an eval; sweeps are deterministic, so the failover
// node fits a bit-identical frontier (a cold cache costs time, never
// correctness).
func optimizeKey(req *eisvc.OptimizeRequest) (string, uint64) {
	return req.Interface, optimizeSpread(req)
}

// routeAffine forwards one request whose answer benefits from memo
// locality: the stack's ring owners rotated by the request fingerprint,
// except that the node which last served this exact fingerprint — its
// memo is warm — goes first regardless of ring order. Failover follows
// the usual candidate walk.
func (rt *Router) routeAffine(w http.ResponseWriter, r *http.Request, body []byte, stack string, spread uint64, what string) {
	cands := rt.candidatesFor(stack, spread)
	affKey := hash64(stack) ^ spread
	affID, affKnown := rt.aff.get(affKey)
	if affKnown {
		for i, n := range cands {
			if n.ID == affID {
				if i > 0 {
					copy(cands[1:i+1], cands[0:i])
					cands[0] = n
				}
				break
			}
		}
	}
	ok := rt.tryCandidates(r, body, cands, func(n *Node, resp *http.Response) bool {
		if resp.StatusCode/100 == 2 {
			if affKnown && n.ID == affID {
				rt.affinityHits.Add(1)
			}
			rt.aff.put(affKey, n.ID)
		}
		relay(w, resp)
		return true
	})
	if !ok {
		rt.writeExhausted(w, what)
	}
}

// optimizeSpread fingerprints a sweep the way spreadHash fingerprints
// an eval: identical sweeps land on the same replica, distinct sweeps
// over the same stack spread across its owners. The binary decoder
// yields the same field values as a JSON decode, so codecs agree.
func optimizeSpread(req *eisvc.OptimizeRequest) uint64 {
	var b bytes.Buffer
	b.WriteString(req.EnergyMethod)
	b.WriteByte('|')
	b.WriteString(req.LatencyMethod)
	b.WriteByte('|')
	b.WriteString(req.Mode)
	b.WriteByte('|')
	b.WriteString(strconv.FormatInt(req.Seed, 10))
	b.WriteByte('|')
	b.WriteString(strconv.FormatFloat(req.SLOMs, 'g', -1, 64))
	if raw, err := json.Marshal(req.Knobs); err == nil {
		b.Write(raw)
	}
	return hash64(b.String())
}

// handleEvalBatch splits a batch by each item's preferred node and
// forwards the sub-batches concurrently, stitching results back in
// request order. A sub-batch whose preferred node fails retries on the
// shared candidate list, so a mid-batch node kill surfaces as latency,
// not errors.
func (rt *Router) handleEvalBatch(w http.ResponseWriter, r *http.Request) {
	rt.routed.Add(1)
	ep := eisvc.EvalBatchEndpoint
	req := ep.Read(w, r)
	if req == nil {
		return
	}
	if len(req.Requests) == 0 {
		eisvc.WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}

	// Group item indices by preferred node ID. Items for unknown stacks or
	// an empty ring fall into the "" group and ride with any live node.
	groups := map[string][]int{}
	for i := range req.Requests {
		it := &req.Requests[i]
		pref := ""
		if owners := rt.f.OwnersOf(it.Interface); len(owners) > 0 {
			pref = owners[spreadHash(it)%uint64(len(owners))]
		}
		groups[pref] = append(groups[pref], i)
	}

	// Sub-batches re-encode in the inbound codec, so binary clients stay
	// binary hop to hop and JSON clients stay debuggable end to end.
	codec := r.Header.Get("Content-Type")
	results := make([]eisvc.BatchEvalItem, len(req.Requests))
	var wg sync.WaitGroup
	for pref, idxs := range groups {
		wg.Add(1)
		go func(pref string, idxs []int) {
			defer wg.Done()
			sub := eisvc.BatchEvalRequest{Requests: make([]eisvc.EvalRequest, len(idxs))}
			for j, i := range idxs {
				sub.Requests[j] = req.Requests[i]
			}
			var body bytes.Buffer // unpooled, like routeKeyed's
			if err := ep.Request.Encode(&body, codec, &sub); err != nil {
				failGroup(results, idxs, req, "encode sub-batch: "+err.Error())
				return
			}
			// The preferred node first, then every other live node; a node
			// whose answer does not decode to one result per item is
			// skipped like a dead one.
			ok := rt.tryCandidates(r, body.Bytes(), rt.candidates([]string{pref}, 0), func(_ *Node, resp *http.Response) bool {
				data, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode/100 != 2 {
					return false
				}
				out, err := ep.Response.Decode(resp.Header.Get("Content-Type"), data)
				if err != nil || len(out.Results) != len(idxs) {
					return false
				}
				for j, i := range idxs {
					results[i] = out.Results[j]
				}
				return true
			})
			if !ok {
				rt.exhausted.Add(1)
				failGroup(results, idxs, req, "fleet: no node could serve batch")
			}
		}(pref, idxs)
	}
	wg.Wait()
	ep.Write(w, r, &eisvc.BatchEvalResponse{Results: results})
}

// failGroup marks every item of a failed sub-batch as 503 so callers can
// retry item-by-item.
func failGroup(results []eisvc.BatchEvalItem, idxs []int, req *eisvc.BatchEvalRequest, msg string) {
	for _, i := range idxs {
		results[i] = eisvc.BatchEvalItem{
			Interface: req.Requests[i].Interface,
			Method:    req.Requests[i].Method,
			Status:    http.StatusServiceUnavailable,
			Error:     msg,
		}
	}
}

// handleMutate serializes a register/rebind through the fleet primary
// and replicates the resulting registry snapshot to every node before
// answering, so a client that mutates and immediately evaluates sees its
// write no matter which node the evaluation routes to.
func (rt *Router) handleMutate(w http.ResponseWriter, r *http.Request) {
	var body bytes.Buffer
	if !eisvc.ReadBody(w, r, &body) {
		return
	}
	rt.f.mutMu.Lock()
	defer rt.f.mutMu.Unlock()
	p := rt.f.primary()
	if p == nil {
		rt.writeExhausted(w, r.URL.Path)
		return
	}
	resp, err := rt.forward(r.Context(), p, r, body.Bytes())
	if err != nil {
		rt.writeExhausted(w, r.URL.Path)
		return
	}
	if resp.StatusCode/100 == 2 {
		rt.f.ReplicateFrom(p)
	}
	relay(w, resp)
}

// forwardToAnyLive serves reads: any live node answers identically.
func (rt *Router) forwardToAnyLive(w http.ResponseWriter, r *http.Request) {
	var body bytes.Buffer
	if !eisvc.ReadBody(w, r, &body) {
		return
	}
	ok := rt.tryCandidates(r, body.Bytes(), rt.f.LiveNodes(), func(_ *Node, resp *http.Response) bool {
		relay(w, resp)
		return true
	})
	if !ok {
		rt.writeExhausted(w, r.URL.Path)
	}
}

// --- fleet stats ---

// FleetStats is the router's /v1/stats payload: cluster shape, routing
// counters, a fleet-wide aggregate, and each reachable node's own stats
// keyed by node ID.
type FleetStats struct {
	Nodes       int `json:"nodes"`
	LiveNodes   int `json:"live_nodes"`
	Replication int `json:"replication"`

	RouterCounters

	Aggregate eisvc.StatsResponse             `json:"aggregate"`
	PerNode   map[string]*eisvc.StatsResponse `json:"per_node"`
}

// Stats gathers per-node stats and folds them into a fleet aggregate.
// Unreachable nodes are skipped (they still count in Nodes).
func (rt *Router) Stats(ctx context.Context) *FleetStats {
	nodes := rt.f.Nodes()
	fs := &FleetStats{
		Nodes:          len(nodes),
		Replication:    rt.f.cfg.Replication,
		RouterCounters: rt.Counters(),
		PerNode:        map[string]*eisvc.StatsResponse{},
	}
	for _, n := range nodes {
		if n.Live() {
			fs.LiveNodes++
		}
		if !n.reachable() {
			continue
		}
		st, err := n.peer.StatsCtx(ctx)
		if err != nil {
			continue
		}
		fs.PerNode[n.ID] = st
		fs.Aggregate.Fold(st)
	}
	return fs
}

// StartRouter listens on addr ("" means an ephemeral loopback port) and
// serves a new router for the fleet. It returns the router (for
// counters/stats), its base URL, and a shutdown func.
func (f *Fleet) StartRouter(addr string) (*Router, string, func(), error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", nil, fmt.Errorf("fleet: router: %w", err)
	}
	rt := NewRouter(f)
	return rt, "http://" + ln.Addr().String(), eisvc.ServeOn(ln, rt), nil
}
