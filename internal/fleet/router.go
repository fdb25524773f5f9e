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
		rt.routeKeyed(w, r, evalKey)
	case post && path == eisvc.EvalBatchEndpoint.Path:
		rt.handleEvalBatch(w, r)
	case post && path == eisvc.OptimizeEndpoint.Path:
		rt.routeKeyed(w, r, optimizeKey)
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

// --- handlers ---

// routeKeyed serves a route whose whole request goes to one node chosen
// by a key read off its body. The body is read for placement only and the
// caller's exact bytes are forwarded. A body keyOf rejects is the router's
// own 400.
func (rt *Router) routeKeyed(w http.ResponseWriter, r *http.Request, keyOf func(contentType string, body []byte) (stack string, spread uint64, err error)) {
	rt.routed.Add(1)
	// Not pooled: an abandoned forward's transport goroutine may still be
	// reading these bytes after the walk has moved on.
	var body bytes.Buffer
	if !eisvc.ReadBody(w, r, &body) {
		return
	}
	stack, spread, err := keyOf(r.Header.Get("Content-Type"), body.Bytes())
	if err != nil {
		eisvc.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	rt.routeAffine(w, r, body.Bytes(), stack, spread)
}

// evalKey reads an evaluation's placement off its frame without decoding
// it: the walker's spread fingerprint is the one definition of where a
// request goes, alone or as a batch item. A JSON body is decoded strictly
// (unknown fields are this router's 400, as they are a node's) and
// re-encoded only to be fingerprinted; both codecs decode to the same Go
// values and the encoding is canonical, so a mixed JSON/binary client
// population still lands identical requests on the same replica.
func evalKey(contentType string, body []byte) (string, uint64, error) {
	scratch := eisvc.GetBuffer()
	defer eisvc.PutBuffer(scratch)
	frame, err := eisvc.EvalEndpoint.Request.Frame(scratch, contentType, body)
	if err != nil {
		return "", 0, err
	}
	it, err := eisvc.WalkEvalRequest(frame)
	return string(it.Interface), it.Spread, err
}

// optimizeKey routes a whole auto-optimizer sweep to one node — the
// stack's owner under the sweep fingerprint — so a repeat sweep lands
// where its per-evaluation memos are warm. A dead or shedding owner
// fails over like an eval; sweeps are deterministic, so the failover
// node fits a bit-identical frontier (a cold cache costs time, never
// correctness). One sweep stands for thousands of evals and its key needs
// the knob table, so this route decodes.
func optimizeKey(contentType string, body []byte) (string, uint64, error) {
	req, err := eisvc.OptimizeEndpoint.Request.Decode(contentType, body)
	if err != nil {
		return "", 0, err
	}
	return req.Interface, optimizeSpread(req), nil
}

// routeAffine forwards one request whose answer benefits from memo
// locality: the stack's ring owners rotated by the request fingerprint,
// except that the node which last served this exact fingerprint — its
// memo is warm — goes first regardless of ring order. Failover follows
// the usual candidate walk.
func (rt *Router) routeAffine(w http.ResponseWriter, r *http.Request, body []byte, stack string, spread uint64) {
	cands := rt.candidatesFor(stack, spread)
	affKey := eisvc.Hash64(stack) ^ spread
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
		rt.writeExhausted(w, strings.TrimPrefix(r.URL.Path, "/v1/")+" of "+stack)
	}
}

// optimizeSpread fingerprints a sweep the way FrameItem.Spread
// fingerprints an eval: identical sweeps land on the same replica,
// distinct sweeps over the same stack spread across its owners. The binary
// decoder yields the same field values as a JSON decode, so codecs agree.
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
	return eisvc.Hash64(b.String())
}

// handleEvalBatch switches a batch's frames: it walks the request frame
// once, cuts each preferred node's sub-batch out of it as header + count
// + the items' own bytes, forwards the sub-batches concurrently, and
// stitches the nodes' answer items back in request order the same way.
// No item is decoded in either direction. A sub-batch whose preferred
// node fails retries on the shared candidate list, so a mid-batch node
// kill surfaces as latency, not errors. JSON lives at the edge only: a
// JSON batch is transcoded to the frame on the way in, a JSON Accept gets
// the stitched frame decoded on the way out, and the hop to the nodes is
// always binary.
func (rt *Router) handleEvalBatch(w http.ResponseWriter, r *http.Request) {
	rt.routed.Add(1)
	ep := eisvc.EvalBatchEndpoint
	in, scratch, out := eisvc.GetBuffer(), eisvc.GetBuffer(), eisvc.GetBuffer()
	defer eisvc.PutBuffer(in)
	defer eisvc.PutBuffer(scratch)
	defer eisvc.PutBuffer(out)
	if !eisvc.ReadBody(w, r, in) {
		return
	}
	frame, err := ep.Request.Frame(scratch, r.Header.Get("Content-Type"), in.Bytes())
	var items []eisvc.FrameItem
	if err == nil {
		items, err = eisvc.WalkBatchEvalRequest(frame)
	}
	if err != nil {
		eisvc.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(items) == 0 {
		eisvc.WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}

	// Group item indices by preferred node ID, asking the ring once per
	// distinct stack. Items for unknown stacks or an empty ring fall into
	// the "" group and ride with any live node.
	type subBatch struct {
		idxs []int
		size int // bytes of the items
	}
	owners := map[string][]string{}
	groups := map[string]*subBatch{}
	for i := range items {
		own, seen := owners[string(items[i].Interface)]
		if !seen {
			stack := string(items[i].Interface)
			own = rt.f.OwnersOf(stack)
			owners[stack] = own
		}
		pref := ""
		if len(own) > 0 {
			pref = own[items[i].Spread%uint64(len(own))]
		}
		g := groups[pref]
		if g == nil {
			g = &subBatch{}
			groups[pref] = g
		}
		g.idxs = append(g.idxs, i)
		g.size += items[i].End - items[i].Off
	}

	// answers[i] is item i's answer, a range of the frame its node sent;
	// nil while no node has answered for it.
	answers := make([][]byte, len(items))
	hop := binaryHop(r)
	var wg sync.WaitGroup
	for pref, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Unpooled, like routeKeyed's, and exactly sized.
			body := bytes.NewBuffer(make([]byte, 0, eisvc.BatchHeaderLen+g.size))
			eisvc.BeginBatchEvalRequest(body, len(g.idxs))
			for _, i := range g.idxs {
				body.Write(frame[items[i].Off:items[i].End])
			}
			// The preferred node first, then every other live node; a node
			// whose answer is not a well-formed frame of one item per
			// request is skipped like a dead one.
			ok := rt.tryCandidates(hop, body.Bytes(), rt.candidates([]string{pref}, 0), func(_ *Node, resp *http.Response) bool {
				data, err := readAnswer(resp)
				if err != nil {
					return false
				}
				got, err := eisvc.WalkBatchEvalResponse(data)
				if err != nil || len(got) != len(g.idxs) {
					return false
				}
				for j, i := range g.idxs {
					answers[i] = data[got[j].Off:got[j].End]
				}
				return true
			})
			if !ok {
				rt.exhausted.Add(1)
			}
		}()
	}
	wg.Wait()

	// An item nobody answered is a 503 of its own, so callers can retry
	// item by item; these are the only items the router ever encodes.
	eisvc.BeginBatchEvalResponse(out, len(items))
	for i, a := range answers {
		if a != nil {
			out.Write(a)
			continue
		}
		eisvc.AppendBatchEvalError(out, frame[items[i].Off:items[i].End],
			http.StatusServiceUnavailable, "fleet: no node could serve batch")
	}
	ep.WriteFrame(w, r, out)
}

// binaryHop returns r as forward should see it for a hop that is binary
// both ways: r itself when the caller already speaks binary both ways, a
// copy with the two codec headers rewritten otherwise.
func binaryHop(r *http.Request) *http.Request {
	if eisvc.IsBinaryContentType(r.Header.Get("Content-Type")) && eisvc.AcceptsBinary(r) {
		return r
	}
	hop := r.Clone(r.Context())
	hop.Header.Set("Content-Type", eisvc.BinaryContentType)
	hop.Header.Set("Accept", eisvc.BinaryContentType)
	return hop
}

// readAnswer reads a node's 2xx answer into one exactly-sized slice (every
// node answer carries a Content-Length), up to MaxBodyBytes and no
// further. Deliberately not a pooled buffer: every buffer in the shared
// pool would grow to the largest answer that ever passed through it, and
// a few dozen are in circulation (ROADMAP direction 1 has the numbers).
func readAnswer(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	switch n := resp.ContentLength; {
	case resp.StatusCode/100 != 2 || n > eisvc.MaxBodyBytes:
		return nil, fmt.Errorf("fleet: node answered %d with %d bytes", resp.StatusCode, n)
	case n >= 0:
		data := make([]byte, n)
		_, err := io.ReadFull(resp.Body, data)
		return data, err
	default:
		// No length: read to the cap. A longer answer is cut there, and a
		// cut frame fails the walk.
		return io.ReadAll(io.LimitReader(resp.Body, eisvc.MaxBodyBytes))
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
