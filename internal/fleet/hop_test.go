package fleet

import (
	"bytes"
	"context"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

// headerRecorder serves next and keeps the header names (and the client
// ID) of the last evaluation request it saw.
type headerRecorder struct {
	next   http.Handler
	mu     sync.Mutex
	names  []string
	client string
}

func (h *headerRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == eisvc.EvalEndpoint.Path {
		names := make([]string, 0, len(r.Header))
		for k := range r.Header {
			names = append(names, k)
		}
		slices.Sort(names)
		h.mu.Lock()
		h.names, h.client = names, r.Header.Get("X-Eisvc-Client")
		h.mu.Unlock()
	}
	h.next.ServeHTTP(w, r)
}

func (h *headerRecorder) last() (string, string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return strings.Join(h.names, " "), h.client
}

// TestHopAllocs counts one warm binary eval on loopback TCP, client and
// servers together, two ways: client → node, and client → router → node.
// On a 2 vCPU Xeon 2.10 GHz with go1.24.0 the counts went, before →
// after Hop.Send: direct 128 → 109, routed 232 → 193.
// The drop is what a hop no longer pays: http.Client's redirect
// bookkeeping and header clone, one Header.Set per header per request and
// per answer, the User-Agent and Accept-Encoding lines and their parsing,
// and the router's membership copy, sort and seen-map on every routed
// request. Routed is 191 since the router relays the node's
// Content-Length and writes the answer at once. Both fell by 12, to
// 97 / 179, when the node came to key a warm request off its bytes
// instead of decoding it (its EvalRequest, three strings, the argument
// vector, the record's map and the memo key's string) and the client to
// send one exactly sized copy of a pooled encoding. They fell by 3 more,
// to 94 / 176, when the node's single eval kept its keyed item on the
// stack and the client's Dist came to share the vectors it decoded
// instead of copying them. A third row counts a unique-argument direct
// eval, a memo miss that evaluates in an exact mode with a worker slot
// free: 221 → 210 when its queue deadline became a value, which makes no
// timer unless a wait blocks (and the two cuts above), then 210 → 206
// when a node with no peer to ask stopped building the peer lookup's
// per-call state. Then the node came to lay its answer frame out itself
// (no EvalResponse on the heap, no second encode buffer) and the client
// to decode the answer's names without copying them (its request's
// interface, method and mode, a node ID from a per-Client table): 94 →
// 89, 176 → 171, 206 → 201. A fourth row counts a unique-argument direct
// eval on a 2-node fleet whose first node holds its peer's summary, which
// rules every unique key out: 207 while the peer lookup built its
// per-call state before it found every key ruled out, 198 since it looks
// first. The bounds are 3% over the highest of 30 runs.
//
// It also pins what each hop sends, read off the wire by the server: the
// codecs, the client's identity, the resilience headers only when set,
// and nothing else — no User-Agent, no Accept-Encoding. Content-Length is
// the body's framing. The router carries the caller's identity and
// resilience headers through to the node. Then 32 goroutines share one
// client: under -race this shows the shared header sets are only read.
func TestHopAllocs(t *testing.T) {
	f := startFleet(t, Config{Nodes: 1})
	if _, err := f.RegisterSource(fleetEIL); err != nil {
		t.Fatal(err)
	}
	node := &headerRecorder{next: f.Nodes()[0].Server}
	nodeURL, stopNode, err := eisvc.ServeLoopback(node)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopNode)
	// The router forwards to the recorded node whatever host it names.
	rt := NewRouter(f)
	tr := eisvc.NewTransport(eisvc.TransportTuning{})
	tr.DialContext = func(ctx context.Context, network, _ string) (net.Conn, error) {
		return (&net.Dialer{}).DialContext(ctx, network, strings.TrimPrefix(nodeURL, "http://"))
	}
	rt.tr = tr
	router := &headerRecorder{next: rt}
	routerURL, stopRouter, err := eisvc.ServeLoopback(router)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopRouter)

	// A 2-node fleet whose first node holds its peer's summary, once its
	// first miss has fetched it: a unique key is then ruled out unasked.
	pair := startFleet(t, Config{Nodes: 2})
	if _, err := pair.RegisterSource(fleetEIL); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	const plain = "Accept Content-Length Content-Type X-Eisvc-Client"
	clients := map[string]*eisvc.Client{}
	for _, hop := range []struct {
		name, base string
		seen       []*headerRecorder
	}{{"direct", nodeURL, []*headerRecorder{node}}, {"routed", routerURL, []*headerRecorder{router, node}}} {
		c := eisvc.NewClient(hop.base)
		c.ID = "hop-test"
		if _, _, err := c.EvalCtx(ctx, "ml_webservice", "handle", traceArgs(0), traceOpts); err != nil {
			t.Fatalf("%s: %v", hop.name, err)
		}
		for i, rec := range hop.seen {
			if names, client := rec.last(); names != plain || client != "hop-test" {
				t.Errorf("%s, hop %d: sent %q as %q, want %q as hop-test", hop.name, i+1, names, client, plain)
			}
		}
		clients[hop.name] = c
	}
	clients["pair"] = eisvc.NewClient(pair.Nodes()[0].URL)

	// A retried hedge through the router: both hops carry all five.
	var frame bytes.Buffer
	req := clients["routed"].EvalRequestFor("ml_webservice", "handle", traceArgs(0), traceOpts)
	if err := eisvc.EncodeEvalRequest(&frame, &req); err != nil {
		t.Fatal(err)
	}
	resp, err := eisvc.Hop{ContentType: eisvc.BinaryContentType, Accept: eisvc.BinaryContentType,
		Client: "hop-test", Attempt: "2", Hedge: "1"}.Send(ctx, eisvc.NewTransport(eisvc.TransportTuning{}), http.MethodPost, routerURL+eisvc.EvalEndpoint.Path, frame.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	const all = "Accept Content-Length Content-Type X-Eisvc-Attempt X-Eisvc-Client X-Eisvc-Hedge"
	for hop, rec := range map[string]*headerRecorder{"client → router": router, "router → node": node} {
		if names, client := rec.last(); resp.StatusCode != http.StatusOK || names != all || client != "hop-test" {
			t.Errorf("%s: status %d, sent %q as %q, want %q as hop-test", hop, resp.StatusCode, names, client, all)
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if _, _, err := clients["routed"].EvalCtx(ctx, "ml_webservice", "handle", traceArgs(i%2), traceOpts); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	if raceEnabled {
		return
	}
	const runs = 200 // AllocsPerRun makes one more, unmeasured
	warm, unique := traceArgs(0), make([][]core.Value, runs+1)
	for i := range unique {
		unique[i] = traceArgs(1000 + i)
	}
	for _, row := range []struct {
		name, client string
		args         func(i int) []core.Value
		opts         core.EvalOptions
		bound        float64
	}{
		{"direct, warm", "direct", func(int) []core.Value { return warm }, traceOpts, 92},
		{"routed, warm", "routed", func(int) []core.Value { return warm }, traceOpts, 177},
		{"direct, unique arguments", "direct", func(i int) []core.Value { return unique[i] }, core.Expected(), 208},
		{"direct, unique arguments, peer ruled out", "pair", func(i int) []core.Value { return unique[i] }, core.Expected(), 204},
	} {
		c, i := clients[row.client], 0
		allocs := testing.AllocsPerRun(runs, func() {
			if _, _, err := c.EvalCtx(ctx, "ml_webservice", "handle", row.args(i), row.opts); err != nil {
				t.Fatal(err)
			}
			i++
		})
		t.Logf("%s: %.1f allocations per eval", row.name, allocs)
		if allocs > row.bound {
			t.Errorf("%s: %.1f allocations per eval, want <= %v", row.name, allocs, row.bound)
		}
	}
}
