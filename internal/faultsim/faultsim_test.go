package faultsim

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func okServer(t *testing.T, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if hits != nil {
			hits.Add(1)
		}
		w.Write([]byte("ok"))
	}))
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, c *http.Client, url string) (*http.Response, error) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c.Do(req)
}

// TestDeterministic: the same seed produces the same fault sequence.
func TestDeterministic(t *testing.T) {
	ts := okServer(t, nil)
	plan := Plan{Seed: 5, PResetPre: 0.5}
	run := func() []bool {
		tr := NewTransport(plan, nil)
		c := &http.Client{Transport: tr}
		var seq []bool
		for i := 0; i < 40; i++ {
			resp, err := get(t, c, ts.URL)
			seq = append(seq, err == nil)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		return seq
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d: runs diverged (%v vs %v)", i, a[i], b[i])
		}
	}
}

// TestResetsPrePost: pre-forward resets never reach the server;
// post-forward resets do (the work ran, the answer was lost).
func TestResetsPrePost(t *testing.T) {
	var hits atomic.Int64
	ts := okServer(t, &hits)

	pre := NewTransport(Plan{Seed: 1, PResetPre: 1}, nil)
	if _, err := get(t, &http.Client{Transport: pre}, ts.URL); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("pre-forward err = %v, want ErrInjectedReset", err)
	}
	if hits.Load() != 0 {
		t.Fatalf("server saw %d requests through pre-forward resets, want 0", hits.Load())
	}

	post := NewTransport(Plan{Seed: 1, PResetPost: 1}, nil)
	if _, err := get(t, &http.Client{Transport: post}, ts.URL); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("post-forward err = %v, want ErrInjectedReset", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("server saw %d requests through post-forward resets, want 1", hits.Load())
	}
	cs := post.Counters()
	if cs.ResetsPos != 1 || cs.Forwarded != 1 {
		t.Errorf("counters = %+v, want ResetsPos=1 Forwarded=1", cs)
	}
}

// TestSyntheticBurst: P5xx=1 with Burst=3 answers runs of three 503s with
// the Retry-After header, without forwarding anything.
func TestSyntheticBurst(t *testing.T) {
	var hits atomic.Int64
	ts := okServer(t, &hits)
	tr := NewTransport(Plan{Seed: 2, P5xx: 1, Burst: 3, RetryAfter: 2 * time.Second}, nil)
	c := &http.Client{Transport: tr}
	for i := 0; i < 6; i++ {
		resp, err := get(t, c, ts.URL)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d, want 503", i, resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "2" {
			t.Fatalf("request %d: Retry-After %q, want \"2\"", i, ra)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	if hits.Load() != 0 {
		t.Errorf("server saw %d requests during a pure 503 plan, want 0", hits.Load())
	}
	if cs := tr.Counters(); cs.Synth5xx != 6 {
		t.Errorf("Synth5xx = %d, want 6", cs.Synth5xx)
	}
}

// TestHangHonorsContext: a hang blocks until the request context expires
// and then surfaces the context error.
func TestHangHonorsContext(t *testing.T) {
	ts := okServer(t, nil)
	tr := NewTransport(Plan{Seed: 3, PHang: 1}, nil)
	c := &http.Client{Transport: tr}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL, nil)
	start := time.Now()
	_, err := c.Do(req)
	if err == nil {
		t.Fatal("hung request succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("hang released after %v, want ~30ms", elapsed)
	}
	if cs := tr.Counters(); cs.Hangs != 1 {
		t.Errorf("Hangs = %d, want 1", cs.Hangs)
	}
}

// TestLatency delays but still forwards.
func TestLatency(t *testing.T) {
	var hits atomic.Int64
	ts := okServer(t, &hits)
	tr := NewTransport(Plan{Seed: 4, PLatency: 1, Latency: 20 * time.Millisecond}, nil)
	start := time.Now()
	resp, err := get(t, &http.Client{Transport: tr}, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("request finished in %v, want >= 20ms", elapsed)
	}
	if hits.Load() != 1 {
		t.Errorf("server saw %d requests, want 1", hits.Load())
	}
}

// TestFlakyListenerPartition: a cut listener severs open connections and
// drops new accepts; healing restores service on the same port.
func TestFlakyListenerPartition(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &FlakyListener{Listener: inner}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok"))
	})}
	go srv.Serve(fl)
	defer srv.Close()
	url := "http://" + inner.Addr().String()

	// Keep-alives on: the healthy request leaves an open conn behind,
	// which the partition must sever (otherwise the pooled conn would let
	// the next request through).
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := get(t, c, url)
	if err != nil {
		t.Fatalf("healthy request failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	fl.Partition(true)
	if !fl.Partitioned() {
		t.Fatal("Partitioned() = false after Partition(true)")
	}
	if fl.Severed() == 0 {
		t.Error("partition severed no open connections")
	}
	if resp, err := get(t, c, url); err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		t.Fatal("request succeeded through a partitioned listener")
	}

	fl.Partition(false)
	resp, err = get(t, c, url)
	if err != nil {
		t.Fatalf("request after heal failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// TestFlakyListenerConcurrentAcceptPartition hammers a listener with
// concurrent requests while another goroutine toggles the partition —
// the satellite coverage for accept/partition races (run under -race).
// Every request must either succeed or fail cleanly; the listener must
// end healed and serving.
func TestFlakyListenerConcurrentAcceptPartition(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fl := &FlakyListener{Listener: inner}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok"))
	})}
	go srv.Serve(fl)
	defer srv.Close()
	url := "http://" + inner.Addr().String()

	stop := make(chan struct{})
	flipperDone := make(chan struct{})
	var flips atomic.Int64
	go func() {
		defer close(flipperDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			fl.Partition(i%2 == 0)
			flips.Add(1)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	const clients, perClient = 8, 20
	var ok atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &http.Client{Timeout: time.Second}
			for i := 0; i < perClient; i++ {
				resp, err := get(t, c, url)
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	// The flipper may be past its stop check and about to partition once
	// more; heal only after it has exited, or that flip lands after the heal.
	<-flipperDone
	fl.Partition(false)

	if flips.Load() < 2 {
		t.Fatalf("partition flipped only %d times; test exercised nothing", flips.Load())
	}
	if ok.Load() == 0 {
		t.Error("no request ever succeeded through the flapping listener")
	}
	c := &http.Client{Timeout: 2 * time.Second}
	resp, err := get(t, c, url)
	if err != nil {
		t.Fatalf("request after final heal failed: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}
