package experiments

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"

	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
)

// TestRunTrace drives the trace runner against a small E17-stack daemon:
// every client asks its seeded sweep-then-Zipf sequence, a planted wrong
// reference counts as a mismatch, a tolerated error is counted and not
// returned while any other is returned, and the hook runs once per
// request.
func TestRunTrace(t *testing.T) {
	srv := eisvc.NewServer(eisvc.Config{})
	if _, err := srv.Registry().RegisterSource(e17EIL); err != nil {
		t.Fatal(err)
	}
	base, stop, err := eisvc.ServeLoopback(srv)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()

	const clients, classes, draws, seed, bad = 3, 5, 4, 900, 2
	// Each client's sequence, written out: its round-robin share of the
	// sweep, then draws Zipf(1.2) draws from seed+cl.
	want := make([][]int, clients)
	for cl := range want {
		for k := cl; k < classes; k += clients {
			want[cl] = append(want[cl], k)
		}
		zipf := rand.NewZipf(rand.New(rand.NewSource(seed+int64(cl))), 1.2, 1, classes-1)
		for range draws {
			want[cl] = append(want[cl], int(zipf.Uint64()))
		}
	}
	// Class bad's requests in the whole trace, and the clients that ask it.
	asks, askers := 0, 0
	for _, seq := range want {
		for _, k := range seq {
			if k == bad {
				asks++
			}
		}
		if slices.Contains(seq, bad) {
			askers++
		}
	}
	if asks <= askers {
		t.Fatalf("class %d asked %d times by %d clients: the cases below prove too little", bad, asks, askers)
	}
	ref := make([]energy.Dist, classes)
	for k := range ref {
		d, _, err := e17Ask(context.Background(), eisvc.NewClient(base), k)
		if err != nil {
			t.Fatal(err)
		}
		ref[k] = d
	}
	wrong := slices.Clone(ref)
	wrong[bad] = ref[bad].AddConst(1)
	errPlanted := errors.New("planted")

	for _, tc := range []struct {
		name     string
		ref      []energy.Dist
		fail     bool // class bad's asks fail with errPlanted
		tolerate func(error) bool
		// The counts runTrace must return, and whether it must return
		// the planted error.
		mismatched, failed int
		wantErr            bool
	}{
		{name: "clean", ref: ref},
		{name: "planted wrong reference", ref: wrong, mismatched: asks},
		{name: "tolerated error", ref: ref, fail: true, failed: asks,
			tolerate: func(err error) bool { return errors.Is(err, errPlanted) }},
		{name: "untolerated error", ref: ref, fail: true, failed: askers, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu    sync.Mutex
				seen  = make([][]int, clients)
				hooks []int
			)
			tr, err := runTrace(traceSpec{
				clients: clients, classes: classes, sweep: true, n: draws, s: 1.2, seed: seed,
				client: func(cl int) *eisvc.Client {
					c := eisvc.NewClient(base)
					c.ID = strconv.Itoa(cl)
					return c
				},
				ask: func(ctx context.Context, c *eisvc.Client, k int) (energy.Dist, *eisvc.EvalResponse, error) {
					cl, _ := strconv.Atoi(c.ID)
					mu.Lock()
					seen[cl] = append(seen[cl], k)
					mu.Unlock()
					if tc.fail && k == bad {
						return energy.Dist{}, nil, errPlanted
					}
					return e17Ask(ctx, c, k)
				},
				ref:      tc.ref,
				tolerate: tc.tolerate,
				hook: func(n int) {
					mu.Lock()
					hooks = append(hooks, n)
					mu.Unlock()
				},
			})
			if tc.wantErr {
				if !errors.Is(err, errPlanted) {
					t.Fatalf("err = %v, want the planted error", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
			total := 0
			for cl, seq := range seen {
				w := want[cl]
				if i := slices.Index(w, bad); tc.wantErr && i >= 0 {
					w = w[:i+1] // an untolerated error stops its client
				}
				if !slices.Equal(seq, w) {
					t.Errorf("client %d asked %v, want %v", cl, seq, w)
				}
				total += len(w)
			}
			slices.Sort(hooks)
			for i, n := range hooks {
				if n != i+1 {
					t.Fatalf("hook saw start numbers %v, want 1..%d once each", hooks, total)
				}
			}
			if tr.offered != total || len(hooks) != total {
				t.Errorf("offered %d, hook ran %d times, for %d requests", tr.offered, len(hooks), total)
			}
			if tr.mismatched != tc.mismatched || tr.failed != tc.failed {
				t.Errorf("mismatched %d, failed %d; want %d, %d", tr.mismatched, tr.failed, tc.mismatched, tc.failed)
			}
			if tr.succeeded+tr.failed != tr.offered {
				t.Errorf("succeeded %d + failed %d != offered %d", tr.succeeded, tr.failed, tr.offered)
			}
		})
	}
}
