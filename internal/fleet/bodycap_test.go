package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"energyclarity/internal/eisvc"
)

// endless is a request body that never ends and counts what was taken
// from it.
type endless struct{ read int64 }

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	e.read += int64(len(p))
	return len(p), nil
}

func (e *endless) Close() error { return nil }

// TestRequestBodyCap: a body past eisvc.MaxBodyBytes is a 413 with the
// usual JSON error — from a node and from the router alike, on the
// negotiated routes and on the JSON-only ones — after reading at most one
// byte past the cap, and the front keeps serving afterwards.
func TestRequestBodyCap(t *testing.T) {
	f := startFleet(t, Config{Nodes: 3})
	rt, c := startTestRouter(t, f)
	if _, err := c.RegisterCtx(context.Background(), fleetEIL); err != nil {
		t.Fatal(err)
	}
	node := f.Nodes()[0]
	fronts := []struct {
		name    string
		handler http.Handler
		client  *eisvc.Client
	}{
		{"node", node.Server, eisvc.NewClient(node.URL)},
		{"router", rt, c},
	}
	for _, fr := range fronts {
		// In process, so the bytes the handler consumed are countable.
		for _, path := range []string{"/v1/eval", "/v1/evalbatch", "/v1/register"} {
			body := &endless{}
			req := httptest.NewRequest(http.MethodPost, path, body)
			rec := httptest.NewRecorder()
			fr.handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s %s: endless body answered %d, want 413", fr.name, path, rec.Code)
			}
			if !strings.Contains(rec.Body.String(), `"error"`) {
				t.Errorf("%s %s: 413 body is not the JSON error shape: %s", fr.name, path, rec.Body)
			}
			if body.read > eisvc.MaxBodyBytes+1 {
				t.Errorf("%s %s: read %d bytes of an endless body, cap is %d", fr.name, path, body.read, int64(eisvc.MaxBodyBytes))
			}
		}

		// Over a real connection: one byte too many, then business as usual
		// on a fresh connection.
		tr := &http.Transport{DisableKeepAlives: true}
		hc := &http.Client{Transport: tr}
		resp, err := hc.Post(fr.client.Base()+"/v1/eval", "application/json",
			io.LimitReader(&endless{}, eisvc.MaxBodyBytes+1))
		if err != nil {
			t.Fatalf("%s: oversized POST: %v", fr.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized POST answered %d, want 413", fr.name, resp.StatusCode)
		}
		fr.client.SetTransport(tr)
		if _, _, err := fr.client.EvalCtx(context.Background(), "ml_webservice", "handle", traceArgs(0), traceOpts); err != nil {
			t.Fatalf("%s: eval after a rejected oversized body: %v", fr.name, err)
		}
	}
}

// capSource declares n trivial interfaces named prefix0..prefix<n-1>.
func capSource(prefix string, n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "interface %s%d { func f() { return 1J } }\n", prefix, i)
	}
	return b.String()
}

// TestInterfaceCap: a remote caller can fill a registry to exactly
// eisvc.MaxInterfaces distinct names, through a node and through the
// router alike. A source that would pass the cap is a 422 that registers
// nothing anywhere, and re-registering held names stays allowed at the cap.
func TestInterfaceCap(t *testing.T) {
	for _, front := range []string{"node", "router"} {
		f := startFleet(t, Config{Nodes: 2})
		c := eisvc.NewClient(f.Nodes()[0].URL)
		if front == "router" {
			_, c = startTestRouter(t, f)
		}
		ctx := context.Background()
		if _, err := c.RegisterCtx(ctx, capSource("i", eisvc.MaxInterfaces)); err != nil {
			t.Fatalf("%s: registering %d interfaces: %v", front, eisvc.MaxInterfaces, err)
		}
		reg := f.Nodes()[0].Server.Registry()
		_, held, _ := reg.Get("i0")
		var apiErr *eisvc.APIError
		_, err := c.RegisterCtx(ctx, capSource("i", 1)+capSource("over", 1))
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity {
			t.Fatalf("%s: one interface past the cap: %v, want a 422", front, err)
		}
		for _, n := range f.Nodes() {
			if _, _, ok := n.Server.Registry().Get("over0"); ok {
				t.Errorf("%s: %s registered part of a rejected source", front, n.ID)
			}
		}
		if _, v, _ := reg.Get("i0"); v != held {
			t.Errorf("%s: a rejected source re-registered i0 (version %d, was %d)", front, v, held)
		}
		if _, err := c.RegisterCtx(ctx, capSource("i", 1)); err != nil {
			t.Errorf("%s: re-registering a held name at the cap: %v", front, err)
		}
		if n := reg.Len(); n != eisvc.MaxInterfaces {
			t.Errorf("%s: registry holds %d interfaces, want %d", front, n, eisvc.MaxInterfaces)
		}
	}
}
