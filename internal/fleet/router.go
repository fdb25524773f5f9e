package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"energyclarity/internal/counters"
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
	// First, to be 64-bit aligned for the atomic functions on any platform.
	counts RouterCounters

	f  *Fleet
	tr http.RoundTripper // every forward's; one pooled transport for all nodes
}

// NewRouter returns a router over the fleet.
func NewRouter(f *Fleet) *Router {
	return &Router{f: f, tr: eisvc.NewTransport(eisvc.TransportTuning{})}
}

// RouterCounters are the router's routing counters (a counters set).
type RouterCounters struct {
	Routed       uint64 `json:"routed"`        // evaluation requests routed
	Failovers    uint64 `json:"failovers"`     // candidates skipped after a failure
	Exhausted    uint64 `json:"exhausted"`     // requests no candidate could serve
	AffinityHits uint64 `json:"affinity_hits"` // always 0: the router steers nothing; kept for readers of the field
}

// Counters returns a snapshot of the router's routing counters.
func (rt *Router) Counters() (snap RouterCounters) {
	counters.Add(&snap, &rt.counts)
	return snap
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	post := r.Method == http.MethodPost
	switch path := r.URL.Path; {
	case post && path == eisvc.EvalEndpoint.Path:
		rt.handleEval(w, r)
	case post && path == eisvc.EvalBatchEndpoint.Path:
		rt.handleEvalBatch(w, r)
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

// relay copies a node's response to the client verbatim (plus the
// X-Eisvc-Node attribution the node stamped). The node's header values
// are assigned, not Set, so relaying them allocates nothing. Its
// Content-Length goes along, or net/http would send the body chunked; so
// the body is read whole and written at once, because io.Copy would hand
// a body of declared length to the connection's ReadFrom, which allocates
// 32 KB to copy it.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	buf := eisvc.GetBuffer()
	defer eisvc.PutBuffer(buf)
	if err := eisvc.ReadBounded(buf, resp); err != nil {
		eisvc.WriteError(w, http.StatusBadGateway, "fleet: node answer: %v", err)
		return
	}
	for _, k := range [...]string{"Content-Type", "Content-Length", "X-Eisvc-Node", "Retry-After"} {
		if v := resp.Header[k]; len(v) > 0 {
			w.Header()[k] = v
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(buf.Bytes())
}

// tryCandidates forwards body as hop to each candidate in order until
// answer accepts a response (answer owns its body and must close it). A
// shed response (eisvc.ShedStatus) moves on without being offered, except
// from the last candidate — there the shed is the best answer the fleet
// has. A false return means every candidate was dead, shedding, or
// declined.
func (rt *Router) tryCandidates(r *http.Request, hop eisvc.Hop, body []byte, candidates []*Node, answer func(resp *http.Response) bool) bool {
	for i, n := range candidates {
		if i > 0 {
			atomic.AddUint64(&rt.counts.Failovers, 1)
		}
		resp, err := hop.Send(r.Context(), rt.tr, r.Method, n.url(r.URL.Path), body)
		if err != nil {
			continue // dead or partitioned node: next candidate
		}
		if eisvc.ShedStatus(resp.StatusCode) && i < len(candidates)-1 {
			resp.Body.Close()
			continue
		}
		if answer(resp) {
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
	atomic.AddUint64(&rt.counts.Exhausted, 1)
	eisvc.WriteError(w, http.StatusServiceUnavailable, "fleet: no node could serve %s", what)
}

// --- handlers ---

// handleEval forwards one evaluation, the caller's exact bytes, to a node
// chosen by its placement. The placement is read off the frame without
// decoding it: the walker's spread fingerprint is the one definition of
// where a request goes, alone or as a batch item. A JSON body is decoded
// strictly (unknown fields are this router's 400, as they are a node's)
// and re-encoded only to be fingerprinted; both codecs decode to the same
// Go values and the encoding is canonical, so a mixed JSON/binary client
// population still lands identical requests on the same replica.
//
// The candidates are the stack's ring owners rotated by the fingerprint,
// then every other live node: a function of the frame and the membership
// alone. A repeat whose answer is warm elsewhere after a failover is
// found by its node's peer probe, not steered here.
func (rt *Router) handleEval(w http.ResponseWriter, r *http.Request) {
	atomic.AddUint64(&rt.counts.Routed, 1)
	// Not pooled: an abandoned forward's transport goroutine may still be
	// reading these bytes after the walk has moved on.
	var body bytes.Buffer
	if !eisvc.ReadBody(w, r, &body) {
		return
	}
	scratch := eisvc.GetBuffer()
	frame, err := eisvc.EvalEndpoint.Request.Frame(scratch, r.Header.Get("Content-Type"), body.Bytes())
	var it eisvc.FrameItem
	if err == nil {
		it, err = eisvc.WalkEvalRequest(frame)
	}
	stack, spread := string(it.Interface), it.Spread
	eisvc.PutBuffer(scratch)
	if err != nil {
		eisvc.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if !rt.forward(w, r, body.Bytes(), rt.f.ordered(rt.f.OwnersOf(stack), spread, (*Node).Live)) {
		rt.writeExhausted(w, "eval of "+stack)
	}
}

// handleEvalBatch switches a batch's frames: it walks the request frame
// once, cuts each preferred node's sub-batch out of it as header + count
// + the items' own bytes, forwards the sub-batches concurrently, and
// stitches the nodes' answer items back in request order the same way.
// No item is decoded in either direction. A ref item (eisvc.AppendBatchRef)
// goes to the node of the item it repeats, renumbered to that item's index
// in the sub-batch; a node's answer refs are renumbered back to batch
// indices; a held item goes as it came, placed by the item after its
// prefix. A sub-batch whose preferred node fails retries on the shared
// candidate list, so a mid-batch node kill surfaces as latency, not
// errors. JSON lives at the edge only: a JSON batch is transcoded to the
// frame on the way in, a JSON Accept gets the stitched frame decoded (its
// refs expanded, its items sent without held prefixes) on the way out, and
// the hop to the nodes is always binary.
func (rt *Router) handleEvalBatch(w http.ResponseWriter, r *http.Request) {
	atomic.AddUint64(&rt.counts.Routed, 1)
	ep := eisvc.EvalBatchEndpoint
	in, scratch, out := eisvc.GetBuffer(), eisvc.GetBuffer(), eisvc.GetBuffer()
	defer eisvc.PutBuffer(in)
	defer eisvc.PutBuffer(scratch)
	defer eisvc.PutBuffer(out)
	if !eisvc.ReadBody(w, r, in) {
		return
	}
	frame, err := ep.Request.Frame(scratch, r.Header.Get("Content-Type"), in.Bytes())
	walked := frameItems.Get().(*[]eisvc.FrameItem)
	defer putCleared(&frameItems, walked)
	var items []eisvc.FrameItem
	if err == nil {
		items, err = eisvc.WalkBatchEvalRequest(*walked, frame)
		*walked = items // nil if the walk failed: its array, part written, is dropped
	}
	if err != nil {
		eisvc.WriteError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(items) == 0 {
		eisvc.WriteError(w, http.StatusBadRequest, "empty batch")
		return
	}

	// Group items by preferred node ID, asking the ring once per distinct
	// stack. Items for unknown stacks, an empty ring or no live owner fall
	// into the "" group and ride with any live node. A ref item rides with
	// the item it repeats.
	owners := map[string][]string{}
	groups := map[string]*subBatch{}
	placed := slotArrays.Get().(*[]slot)
	defer putCleared(&slotArrays, placed)
	slots := slices.Grow(*placed, len(items))[:len(items)]
	*placed = slots
	for i := range items {
		var g *subBatch
		if j := items[i].Ref - 1; j >= 0 {
			g = slots[j].g
		} else {
			own, seen := owners[string(items[i].Interface)]
			if !seen {
				stack := string(items[i].Interface)
				own = rt.f.OwnersOf(stack)
				owners[stack] = own
			}
			pref := rt.f.preferred(own, items[i].Spread)
			if g = groups[pref]; g == nil {
				g = &subBatch{}
				groups[pref] = g
			}
		}
		slots[i].g, slots[i].at = g, g.n
		g.n++
		g.size += items[i].End - items[i].Off
	}
	next := 0
	for _, g := range groups {
		g.first, next = next, next+g.n
	}
	for i := range slots {
		slots[slots[i].g.first+slots[i].at].member = i
	}

	binary := eisvc.AcceptsBinary(r)
	hop := eisvc.Forwarded(r) // the caller's identity; binary both ways
	hop.ContentType, hop.Accept = eisvc.BinaryContentType, eisvc.BinaryContentType
	var wg sync.WaitGroup
	for pref, g := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			members := slots[g.first : g.first+g.n]
			// Unpooled, like handleEval's, and exactly sized.
			body := bytes.NewBuffer(make([]byte, 0, eisvc.BatchHeaderLen+g.size))
			eisvc.BeginBatchEvalRequest(body, g.n)
			for k := range members { // member fields only: other sub-batches set answers
				it := items[members[k].member]
				if j := it.Ref - 1; j >= 0 {
					body.Write(eisvc.AppendBatchRef(body.AvailableBuffer(), slots[j].at))
				} else if it.Held && !binary { // JSON has no held answers
					body.Write(frame[it.Off+eisvc.HeldPrefixLen : it.End])
				} else {
					body.Write(frame[it.Off:it.End])
				}
			}
			// The preferred node first, then every other live node; a node
			// whose answer is not a well-formed frame of one item per
			// request is skipped like a dead one.
			walked := frameItems.Get().(*[]eisvc.FrameItem)
			defer putCleared(&frameItems, walked)
			g.answer = answerBufs.Get().(*bytes.Buffer)
			ok := rt.tryCandidates(r, hop, body.Bytes(), rt.f.ordered([]string{pref}, 0, (*Node).Live), func(resp *http.Response) bool {
				g.answer.Reset()
				if readAnswer(resp, g.answer) != nil {
					return false
				}
				data := g.answer.Bytes()
				got, err := eisvc.WalkBatchEvalResponse(*walked, data)
				*walked = got
				if err != nil || len(got) != g.n {
					return false
				}
				for j := range members {
					a := data[got[j].Off:got[j].End]
					if k := got[j].Ref - 1; k >= 0 { // renumbered in place: data is this batch's own
						eisvc.AppendBatchRef(a[:0], members[k].member)
					}
					slots[members[j].member].answer = a
				}
				return true
			})
			if !ok {
				atomic.AddUint64(&rt.counts.Exhausted, 1)
			}
		}()
	}
	wg.Wait()

	// An item nobody answered is a 503 of its own, so callers can retry
	// item by item; these are the only items the router ever encodes, a
	// ref's from the bytes of the item it repeats (unanswered with it).
	eisvc.BeginBatchEvalResponse(out, len(items))
	for i := range slots {
		if a := slots[i].answer; a != nil {
			out.Write(a)
			continue
		}
		it := items[i]
		if it.Ref > 0 {
			it = items[it.Ref-1]
		}
		eisvc.AppendBatchEvalError(out, frame[it.Off:it.End],
			http.StatusServiceUnavailable, "fleet: no node could serve batch")
	}
	for _, g := range groups {
		putAnswer(g.answer)
	}
	ep.WriteFrame(w, r, out)
}

// subBatch is the items of a batch that go to one node, whose batch
// indices are the member fields of slots[first:first+n]; size is their
// bytes, and answer the node's answer frame.
type subBatch struct {
	first, n, size int
	answer         *bytes.Buffer
}

// slot is one item of a routed batch: its sub-batch, its index there, and
// its answer, a range of that sub-batch's; member lists a sub-batch's items.
type slot struct {
	g          *subBatch
	at, member int
	answer     []byte
}

// frameItems and slotArrays hold the arrays a batch's frames are walked
// into and its items placed in. Each goes back cleared (putCleared), as
// what it holds aliases frames and sub-batches.
var (
	frameItems = sync.Pool{New: func() any { return new([]eisvc.FrameItem) }}
	slotArrays = sync.Pool{New: func() any { return new([]slot) }}
)

func putCleared[T any](pool *sync.Pool, p *[]T) {
	clear(*p)
	*p = (*p)[:0]
	pool.Put(p)
}

// readAnswer reads a node's 2xx answer into buf, up to MaxBodyBytes and no
// further. buf is answerBufs', not the shared bufPool's: every buffer there
// converges on the largest frame the process moves (a batch request, a JSON
// answer; ROADMAP direction 1 has the numbers), while a node's answer to a
// sub-batch, its warm items held and its repeats refs, is a few KB, and a
// buffer past maxPooledAnswer is dropped, not pooled.
func readAnswer(resp *http.Response, buf *bytes.Buffer) error {
	defer resp.Body.Close()
	n := resp.ContentLength
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("fleet: node answered %d", resp.StatusCode)
	}
	if n > 0 && n <= eisvc.MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // once, with room for the read that sees EOF
	}
	if err := eisvc.ReadBounded(buf, resp); err != nil || n < 0 || int64(buf.Len()) == n {
		return err
	}
	return fmt.Errorf("fleet: node answered %d of %d bytes", buf.Len(), n)
}

var answerBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledAnswer = 128 << 10 // sixteen 256-item sub-batches' warm answers

func putAnswer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledAnswer {
		b.Reset()
		answerBufs.Put(b)
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
	resp, err := eisvc.Forwarded(r).Send(r.Context(), rt.tr, r.Method, p.URL+r.URL.Path, body.Bytes())
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
	if !rt.forward(w, r, body.Bytes(), rt.f.LiveNodes()) {
		rt.writeExhausted(w, r.URL.Path)
	}
}

// forward relays the first answer a candidate gives; false if none could.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, body []byte, candidates []*Node) bool {
	return rt.tryCandidates(r, eisvc.Forwarded(r), body, candidates, func(resp *http.Response) bool {
		relay(w, resp)
		return true
	})
}

// --- fleet stats ---

// FleetStats is the router's /v1/stats payload: cluster shape, routing
// counters, a fleet-wide aggregate, and each reachable node's own stats
// keyed by node ID.
type FleetStats struct {
	Nodes       int `json:"nodes"`
	LiveNodes   int `json:"live_nodes"`
	Replication int `json:"replication"`
	// SummaryBytes is what the nodes hold of each other's memo summaries.
	SummaryBytes int `json:"summary_bytes"`

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
		n.sums.Range(func(_, v any) bool {
			fs.SummaryBytes += 4 * len(v.(summary).fps)
			return true
		})
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
