package eisvc_test

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/fleet"
)

// front is one way of reaching the service: a base URL plus the transport
// to reach it with (nil: real TCP).
type front struct {
	name      string
	base      string
	transport http.RoundTripper
	// router fronts stitch a batch answer from several nodes' sub-batches,
	// so that one answer carries no single node's name.
	router bool
}

func (f front) client(id string, binary bool) *eisvc.Client {
	c := eisvc.NewClient(f.base)
	c.ID, c.Binary = id, binary
	if f.transport != nil {
		c.SetTransport(f.transport)
	}
	return c
}

var negotiations = []struct{ contentType, accept string }{
	{"application/json", ""},
	{eisvc.BinaryContentType, eisvc.BinaryContentType},
	{eisvc.BinaryContentType, "application/json"}, // binary body, JSON answer
	{"application/json", eisvc.BinaryContentType}, // JSON body, binary answer
}

// exercise sends one request of one endpoint-table entry through a front
// in every way a caller can: the four Content-Type × Accept negotiations
// as raw HTTP, then the typed client in both codecs. Every answer, with
// the fields that report how it was served (cached, node, ...) cleared by
// normalize, must re-encode to the same binary frame — Float64bits
// equality, since the binary codec carries float bit patterns. It
// returns that frame so fronts can be compared with each other.
func exercise[Req, Resp any](t *testing.T, f front, ep *eisvc.Endpoint[Req, Resp], req *Req, normalize func(*Resp), viaClient func(*eisvc.Client) (*Resp, error)) []byte {
	t.Helper()
	var want []byte
	check := func(how string, resp *Resp) {
		t.Helper()
		normalize(resp)
		var frame bytes.Buffer
		if err := ep.Response.Encode(&frame, eisvc.BinaryContentType, resp); err != nil {
			t.Fatalf("%s %s %s: re-encode: %v", f.name, ep.Path, how, err)
		}
		if want == nil {
			want = frame.Bytes()
		} else if !bytes.Equal(frame.Bytes(), want) {
			t.Fatalf("%s %s %s: answer differs from the JSON/JSON one:\n got  %x\n want %x", f.name, ep.Path, how, frame.Bytes(), want)
		}
	}
	hc := &http.Client{Transport: f.transport}
	for _, n := range negotiations {
		how := n.contentType + " -> " + n.accept
		var body bytes.Buffer
		if err := ep.Request.Encode(&body, n.contentType, req); err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, f.base+ep.Path, &body)
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", n.contentType)
		if n.accept != "" {
			hreq.Header.Set("Accept", n.accept)
		}
		hresp, err := hc.Do(hreq)
		if err != nil {
			t.Fatalf("%s %s %s: %v", f.name, ep.Path, how, err)
		}
		data, err := io.ReadAll(hresp.Body)
		hresp.Body.Close()
		if err != nil || hresp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s %s: status %d, err %v: %s", f.name, ep.Path, how, hresp.StatusCode, err, data)
		}
		answered := hresp.Header.Get("Content-Type")
		if (answered == eisvc.BinaryContentType) != (n.accept == eisvc.BinaryContentType) {
			t.Fatalf("%s %s %s: answered in %q", f.name, ep.Path, how, answered)
		}
		stitched := f.router && ep.Path == eisvc.EvalBatchEndpoint.Path
		if !stitched && hresp.Header.Get("X-Eisvc-Node") == "" {
			t.Fatalf("%s %s %s: no X-Eisvc-Node on the answer", f.name, ep.Path, how)
		}
		resp, err := ep.Response.Decode(answered, data)
		if err != nil {
			t.Fatalf("%s %s %s: decode: %v", f.name, ep.Path, how, err)
		}
		check(how, resp)
	}
	for _, binary := range []bool{false, true} {
		how := "client json"
		if binary {
			how = "client binary"
		}
		resp, err := viaClient(f.client("interop", binary))
		if err != nil {
			t.Fatalf("%s %s %s: %v", f.name, ep.Path, how, err)
		}
		check(how, resp)
	}
	return want
}

// interopCases holds one fixture per endpoint-table entry, keyed by path:
// given a front and the registered ml_webservice version, drive the entry
// and return the canonical answer frames. TestWireSmokeInterop ranges
// over eisvc.Endpoints, so an entry without a fixture here fails the gate.
var interopCases = map[string]func(t *testing.T, f front, version uint64) []byte{
	eisvc.EvalEndpoint.Path: func(t *testing.T, f front, _ uint64) []byte {
		var frames []byte
		for _, opts := range interopModes {
			req := f.client("", false).EvalRequestFor("ml_webservice", "handle", interopArgs, opts)
			frames = append(frames, exercise(t, f, eisvc.EvalEndpoint, &req,
				func(r *eisvc.EvalResponse) { r.Cached, r.Coalesced, r.Peer, r.Node = false, false, false, "" },
				func(c *eisvc.Client) (*eisvc.EvalResponse, error) {
					_, resp, err := c.EvalCtx(context.Background(), "ml_webservice", "handle", interopArgs, opts)
					return resp, err
				})...)
		}
		return frames
	},
	eisvc.EvalBatchEndpoint.Path: func(t *testing.T, f front, _ uint64) []byte {
		var req eisvc.BatchEvalRequest
		for _, opts := range interopModes {
			req.Requests = append(req.Requests, f.client("", false).EvalRequestFor("ml_webservice", "handle", interopArgs, opts))
		}
		return exercise(t, f, eisvc.EvalBatchEndpoint, &req,
			func(r *eisvc.BatchEvalResponse) {
				if len(r.Results) != len(req.Requests) {
					t.Fatalf("batch answered %d items for %d", len(r.Results), len(req.Requests))
				}
				for i := range r.Results {
					it := &r.Results[i]
					if it.Error != "" {
						t.Fatalf("batch item %d: %d %s", i, it.Status, it.Error)
					}
					it.Cached, it.Coalesced, it.Peer = false, false, false
				}
			},
			func(c *eisvc.Client) (*eisvc.BatchEvalResponse, error) {
				items, err := c.EvalBatchCtx(context.Background(), req.Requests)
				return &eisvc.BatchEvalResponse{Results: items}, err
			})
	},
	eisvc.CacheLookupEndpoint.Path: func(t *testing.T, f front, version uint64) []byte {
		hit := eisvc.MemoKey("ml_webservice", version, "handle", interopArgs, core.Expected())
		keys := []string{hit, "no-such-key"}
		return exercise(t, f, eisvc.CacheLookupEndpoint, &eisvc.CacheLookupRequest{Keys: keys},
			func(r *eisvc.CacheLookupResponse) {
				if len(r.Results) != 2 || !r.Results[0].Found || r.Results[1].Found {
					t.Fatalf("cache lookup of %q answered %+v", keys, r.Results)
				}
				r.Node = ""
			},
			func(c *eisvc.Client) (*eisvc.CacheLookupResponse, error) {
				answers, _, err := c.CacheLookupCtx(context.Background(), keys, false)
				resp := &eisvc.CacheLookupResponse{Results: make([]eisvc.CacheLookupResult, len(answers))}
				for i, a := range answers {
					if a.Found {
						wd := eisvc.ToWire(a.Dist)
						resp.Results[i] = eisvc.CacheLookupResult{Found: true, Dist: &wd}
					}
				}
				return resp, err
			})
	},
}

var (
	interopArgs  = []core.Value{eisvc.ReqArg()}
	interopModes = []core.EvalOptions{
		core.Expected(),
		core.WorstCase(),
		core.MonteCarlo(512, 42),
		core.FixedAssignment(map[string]core.Value{
			"request_hit": core.Bool(true), "local_cache_hit": core.Bool(false),
		}),
	}
)

// register uploads the fixtures through a front and returns the version
// ml_webservice was registered at.
func register(t *testing.T, f front) uint64 {
	t.Helper()
	c := f.client("interop-setup", false)
	infos, err := c.RegisterCtx(context.Background(), eisvc.TestEIL)
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range infos {
		if info.Name == "ml_webservice" {
			return info.Version
		}
	}
	t.Fatal("register did not report a version for ml_webservice")
	return 0
}

// TestWireSmokeInterop is the wire-format acceptance gate. For every
// entry of the endpoint table, a daemon reached over TCP, the same daemon
// reached through the in-process loopback transport, and a 3-node fleet
// behind fleet.Router must give bit-identical answers whichever codec
// carries the request and whichever carries the answer — the JSON debug
// path and the binary hot path must never diverge, on any hop.
func TestWireSmokeInterop(t *testing.T) {
	srv := eisvc.NewServer(eisvc.Config{NodeID: "interop"})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	fl, err := fleet.New(fleet.Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	routed := httptest.NewServer(fleet.NewRouter(fl))
	defer routed.Close()

	fronts := []front{
		{name: "node/tcp", base: ts.URL},
		{name: "node/loopback", base: "http://loopback", transport: eisvc.NewLoopbackTransport(srv)},
		{name: "fleet/router", base: routed.URL, router: true},
	}
	version := register(t, fronts[0])
	if v := register(t, fronts[2]); v != version {
		t.Fatalf("fleet registered ml_webservice at v%d, the node at v%d", v, version)
	}
	// A memo probe through the router lands on whichever node is first in
	// line; warm the probed key on all of them so it is a hit anywhere.
	for _, n := range fl.Nodes() {
		if _, _, err := eisvc.NewClient(n.URL).EvalCtx(context.Background(), "ml_webservice", "handle", interopArgs, core.Expected()); err != nil {
			t.Fatal(err)
		}
	}

	for _, path := range eisvc.Endpoints {
		drive, ok := interopCases[path]
		if !ok {
			t.Errorf("%s is in the endpoint table but has no interop fixture", path)
			continue
		}
		var want []byte
		for _, f := range fronts {
			got := drive(t, f, version)
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: %s answers differ from %s", path, f.name, fronts[0].name)
			}
		}
	}

	// A body that does not decode is the router's own 400 — no node is
	// asked, so no node's name is on the answer.
	for _, path := range []string{eisvc.EvalEndpoint.Path, eisvc.EvalBatchEndpoint.Path} {
		hreq, _ := http.NewRequest(http.MethodPost, routed.URL+path, bytes.NewReader([]byte("EIB\x01garbage")))
		hreq.Header.Set("Content-Type", eisvc.BinaryContentType)
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		hresp.Body.Close()
		if hresp.StatusCode != http.StatusBadRequest || hresp.Header.Get("X-Eisvc-Node") != "" {
			t.Errorf("router %s, malformed binary body: status %d from node %q, want the router's own 400",
				path, hresp.StatusCode, hresp.Header.Get("X-Eisvc-Node"))
		}
	}

	// A route that is not in the table is a 404 from a node and through the
	// router alike: the auto-optimizer is a client of /v1/evalbatch, not a
	// route of its own, and /v1/healthz is the one health probe.
	for _, f := range []front{fronts[0], fronts[2]} {
		for _, route := range [][2]string{{http.MethodPost, "/v1/optimize"}, {http.MethodGet, "/healthz"}} {
			hreq, err := http.NewRequest(route[0], f.base+route[1], bytes.NewReader([]byte("{}")))
			if err != nil {
				t.Fatal(err)
			}
			hresp, err := http.DefaultClient.Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			hresp.Body.Close()
			if hresp.StatusCode != http.StatusNotFound {
				t.Errorf("%s: %s %s answered %d, want 404", f.name, route[0], route[1], hresp.StatusCode)
			}
		}
	}
}
