package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/fleet"
)

// E17 is the wire experiment: the binary codec and persistent warm-start
// caches, measured. Two phases:
//
//  1. Interop + latency: the same memoized request through a JSON client,
//     a binary client (both over loopback TCP), and a binary client on
//     the in-process loopback transport — every answer bit-identical,
//     with per-hit latency and encoded sizes for each path. The loopback
//     path is where the fleet's in-process nodes and the embedded mode
//     live, and where the memo hit drops under 10 µs.
//  2. Warm restart: a 3-node fleet with persistent snapshots serves a
//     warm trace, one serving node is killed and restarted, and the full
//     warm trace replays — recovery is milliseconds, the replay is
//     >= 95% cache-served with zero re-evaluations, and every answer is
//     bit-identical to its pre-restart reference.
const (
	e17Distinct = 24  // distinct warm request classes
	e17Reps     = 400 // timed memo hits per path
)

// e17EIL is a small pure-EIL two-layer stack: enough structure for
// non-trivial distributions, no calibrated rig needed.
const e17EIL = `
interface e17_accel {
  func conv(n) { return 0.004mJ * n }
}
interface e17_service {
  ecv req_hit: bernoulli(0.35)
  uses acc: e17_accel
  func handle(req) {
    if req_hit { return 4mJ * 256 }
    return 3 * acc.conv(req.n)
  }
}
`

// E17Result carries both phases.
type E17Result struct {
	// Phase 1: interop + memo-hit latency.
	Reps       int
	JSONMicros float64 // JSON over TCP, per memo hit
	BinMicros  float64 // binary over TCP
	LoopMicros float64 // binary over the in-process loopback transport
	JSONBytes  int     // encoded eval-response size
	BinBytes   int
	// Heap allocations per memo hit on each path, client and server
	// together (they share the process): the counted form of the three
	// latencies, which a loaded box cannot reorder.
	JSONAllocs, BinAllocs, LoopAllocs float64
	InteropMismatches                 int

	// Phase 2: warm restart from snapshot.
	Distinct         int
	Restarted        string
	SnapshotBytes    int64
	SnapshotMemo     int // memo entries the restart loaded
	RestartMillis    float64
	ReplayServed     int // replay answers served from a cache
	ReplayTotal      int
	ReplayEvalDelta  uint64 // re-evaluations during the replay (want 0)
	ReplayMismatches int
}

// Table renders E17.
func (r *E17Result) Table() *Table {
	t := &Table{
		ID:     "E17",
		Title:  "Wire: binary codec memo hits and warm-start restart recovery",
		Header: []string{"phase", "path", "latency", "size", "mismatches", "outcome"},
		Rows: [][]string{
			{"memo hit", "JSON / TCP", fmt.Sprintf("%.1f µs", r.JSONMicros),
				fmt.Sprintf("%d B", r.JSONBytes), cell(r.InteropMismatches), "debug path"},
			{"memo hit", "binary / TCP", fmt.Sprintf("%.1f µs", r.BinMicros),
				fmt.Sprintf("%d B", r.BinBytes), "0",
				fmt.Sprintf("%.2fx vs JSON", r.JSONMicros/r.BinMicros)},
			{"memo hit", "binary / loopback", fmt.Sprintf("%.1f µs", r.LoopMicros),
				fmt.Sprintf("%d B", r.BinBytes), "0",
				fmt.Sprintf("%.2fx vs JSON", r.JSONMicros/r.LoopMicros)},
			{"warm restart", "snapshot", fmt.Sprintf("%.1f ms", r.RestartMillis),
				fmt.Sprintf("%d B", r.SnapshotBytes), cell(r.ReplayMismatches),
				fmt.Sprintf("%d/%d cache-served, %d re-evals", r.ReplayServed, r.ReplayTotal, r.ReplayEvalDelta)},
		},
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("latency: mean over %d memo hits of one warm request; all three paths bit-identical", r.Reps),
		fmt.Sprintf("allocations per memo hit, client and server together: %.0f JSON / TCP, %.0f binary / TCP, %.0f binary / loopback",
			r.JSONAllocs, r.BinAllocs, r.LoopAllocs),
		fmt.Sprintf("restart: killed and restarted %s; its snapshot restored %d memo entries", r.Restarted, r.SnapshotMemo),
		"the replay after restart re-evaluated nothing: every answer came from the restored memo, a peer cache, or the router's memo affinity")
	return t
}

// e17Args builds request class k.
func e17Args(k int) []core.Value {
	return []core.Value{core.Record(map[string]core.Value{
		"n": core.Num(float64(1000 * (k + 1))),
	})}
}

var e17Opts = core.EvalOptions{Mode: core.ModeMonteCarlo, Samples: 256, Seed: 11}

// e17Daemon boots a standalone daemon with the E17 stack on loopback TCP.
func e17Daemon() (*eisvc.Server, string, func(), error) {
	srv := eisvc.NewServer(eisvc.Config{})
	if _, err := srv.Registry().RegisterSource(e17EIL); err != nil {
		return nil, "", nil, err
	}
	base, stop, err := eisvc.ServeLoopback(srv)
	return srv, base, stop, err
}

// e17TimeHits measures the mean per-request latency of reps warm evals
// and the heap allocations per request the process made meanwhile.
func e17TimeHits(c *eisvc.Client, reps int) (last energy.Dist, micros, allocs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		d, resp, err := c.Eval("e17_service", "handle", e17Args(0), e17Opts)
		if err != nil {
			return energy.Dist{}, 0, 0, err
		}
		if !resp.Cached {
			return energy.Dist{}, 0, 0, fmt.Errorf("warm request was not memo-served")
		}
		last = d
	}
	micros = float64(time.Since(start).Microseconds()) / float64(reps)
	runtime.ReadMemStats(&after)
	return last, micros, float64(after.Mallocs-before.Mallocs) / float64(reps), nil
}

// E17Wire runs the wire experiment. short shrinks both phases for
// `go test -short`.
func E17Wire(short bool) (*E17Result, error) {
	reps, distinct := e17Reps, e17Distinct
	if short {
		reps, distinct = 100, 12
	}
	res := &E17Result{Reps: reps, Distinct: distinct}

	// Phase 1: one daemon, three client paths, one warm request.
	srv, base, shutdown, err := e17Daemon()
	if err != nil {
		return nil, err
	}
	jsonC := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
	jsonC.ID = "e17-json"
	binC := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
	binC.ID = "e17-bin"
	binC.Binary = true
	loopC := eisvc.NewClient("http://loopback")
	loopC.SetTransport(eisvc.NewLoopbackTransport(srv))
	loopC.ID = "e17-loop"
	loopC.Binary = true

	// Warm the memo, then time each path against the same entry.
	ref, _, err := jsonC.Eval("e17_service", "handle", e17Args(0), e17Opts)
	if err != nil {
		shutdown()
		return nil, fmt.Errorf("e17 warmup: %w", err)
	}
	for _, p := range []struct {
		c          *eisvc.Client
		at, allocs *float64
	}{{jsonC, &res.JSONMicros, &res.JSONAllocs}, {binC, &res.BinMicros, &res.BinAllocs}, {loopC, &res.LoopMicros, &res.LoopAllocs}} {
		d, micros, allocs, err := e17TimeHits(p.c, reps)
		if err != nil {
			shutdown()
			return nil, fmt.Errorf("e17 timing (%s): %w", p.c.ID, err)
		}
		*p.at, *p.allocs = micros, allocs
		if !d.Equal(ref, 0) {
			res.InteropMismatches++
		}
	}
	shutdown()

	// Encoded sizes of the same eval response, both codecs.
	wd := eisvc.ToWire(ref)
	resp := eisvc.EvalResponse{
		Interface: "e17_service", Version: 1, Method: "handle",
		Mode: e17Opts.Mode.String(), Dist: wd, Cached: true,
	}
	if raw, err := json.Marshal(resp); err == nil {
		res.JSONBytes = len(raw)
	}
	var buf bytes.Buffer
	if err := eisvc.EncodeEvalResponse(&buf, &resp); err == nil {
		res.BinBytes = buf.Len()
	}

	// Phase 2: warm fleet, snapshot, kill + restart, replay.
	return res, res.restartPhase(distinct)
}

// restartPhase warms a snapshot-backed fleet, kills and restarts a
// serving node, and replays the warm trace.
func (r *E17Result) restartPhase(distinct int) error {
	dir, err := os.MkdirTemp("", "e17snap")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fl, err := fleet.New(fleet.Config{Nodes: 3, SnapshotDir: dir})
	if err != nil {
		return err
	}
	defer fl.Close()
	if _, err := fl.RegisterSource(e17EIL); err != nil {
		return err
	}
	_, base, stop, err := fl.StartRouter("")
	if err != nil {
		return err
	}
	defer stop()

	c := eisvc.NewClient(base).TuneTransport(eisvc.TransportTuning{})
	c.ID = "e17-restart"
	c.Binary = true
	ref := make([]energy.Dist, distinct)
	served := make([]string, distinct)
	for k := 0; k < distinct; k++ {
		d, resp, err := c.Eval("e17_service", "handle", e17Args(k), e17Opts)
		if err != nil {
			return fmt.Errorf("e17 warm class %d: %w", k, err)
		}
		ref[k] = d
		served[k] = resp.Node
	}
	if err := fl.SaveCacheSnapshots(); err != nil {
		return err
	}

	victim := served[0]
	if err := fl.KillNode(victim); err != nil {
		return err
	}
	r.Restarted = victim
	if fi, err := os.Stat(dir + "/" + victim + ".eisnap"); err == nil {
		r.SnapshotBytes = fi.Size()
	}
	start := time.Now()
	n, err := fl.RestartNode(victim)
	if err != nil {
		return err
	}
	r.RestartMillis = float64(time.Since(start).Microseconds()) / 1000
	if st, err := eisvc.NewClient(n.URL).Stats(); err == nil {
		r.SnapshotMemo = st.MemoLen
	}

	evalsBefore, _ := e16NodeStats(fl)
	r.ReplayTotal = distinct
	for k := 0; k < distinct; k++ {
		d, resp, err := c.Eval("e17_service", "handle", e17Args(k), e17Opts)
		if err != nil {
			return fmt.Errorf("e17 replay class %d: %w", k, err)
		}
		if resp.Cached || resp.Peer {
			r.ReplayServed++
		}
		if !d.Equal(ref[k], 0) {
			r.ReplayMismatches++
		}
	}
	evalsAfter, _ := e16NodeStats(fl)
	r.ReplayEvalDelta = evalsAfter - evalsBefore
	return nil
}
