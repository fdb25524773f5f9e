package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"

	"energyclarity/internal/eisvc"
)

// setupRepeats is how many times an end-to-end run boots and warms the
// system; setup_s is the median, and the last system is the one measured.
const setupRepeats = 9

type runConfig struct {
	wl      workload
	seed    int64
	seconds float64
	traced  bool
	outDir  string
	setups  int // how many times an end-to-end run sets up; the tests use 1
}

func (c runConfig) span(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// phase is one part of a run with its own request tally.
type phase struct {
	Name      string `json:"name"`
	Sent      int64  `json:"sent"`
	Succeeded int64  `json:"succeeded"`
	Failed    int64  `json:"failed"`
}

func phaseOf(name string, w *window) phase {
	return phase{name, w.sent, w.sent - w.failed, w.failed}
}

// record is everything one run found out; the driver's line is cut from it.
type record struct {
	Workload     string             `json:"workload"`
	Seed         int64              `json:"seed"`
	Seconds      float64            `json:"seconds"`
	Traced       bool               `json:"traced"`
	Correct      bool               `json:"correct"`
	Attempted    int64              `json:"attempted"`
	Failed       int64              `json:"failed"`
	Mismatched   int64              `json:"mismatched"`
	Checked      int64              `json:"checked"`
	Requests     int64              `json:"wire_requests"`
	StreamDigest string             `json:"stream_digest"`
	AnswerDigest string             `json:"answer_digest"`
	Phases       []phase            `json:"phases"`
	P99Us        float64            `json:"latency_p99_us"`
	P99Samples   int                `json:"latency_p99_samples"`
	SetupRuns    []float64          `json:"setup_runs_s,omitempty"`
	SliceOpsS    []float64          `json:"slice_ops_s,omitempty"`
	SliceCPUUs   []float64          `json:"slice_cpu_us_per_op,omitempty"`
	Window       map[string]float64 `json:"window_counters"`
	Metrics      map[string]metric  `json:"metrics"`
	Note         string             `json:"note,omitempty"`
}

func (r *record) fileName() string {
	kind := "e2e"
	if r.Traced {
		kind = "layers"
	}
	return fmt.Sprintf("run-%s-%s.json", r.Workload, kind)
}

func (r *record) driverLine() driverLine {
	return driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func (r *record) print(w io.Writer) {
	fmt.Fprintf(w, "%s seed=%d seconds=%g traced=%v: attempted=%d failed=%d mismatched=%d/%d correct=%v\n",
		r.Workload, r.Seed, r.Seconds, r.Traced, r.Attempted, r.Failed, r.Mismatched, r.Checked, r.Correct)
	fmt.Fprintf(w, "  stream %s  answers %s  p99 %.1f us over %d samples\n", r.StreamDigest, r.AnswerDigest, r.P99Us, r.P99Samples)
	names := e2eNames
	if r.Traced {
		names = layerNames
	}
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	if r.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", r.Note)
	}
}

// setup boots the system, registers the fixtures and warms it: the warm
// classes are repeated until a full pass adds no evaluation and no peer
// lookup, and every unique shape is sent once so its program is compiled.
func setup(ctx context.Context, wl workload, st *stream, tr *tracer) (*system, error) {
	sys, err := startSystem(ctx, wl.fleet, tr)
	if err != nil {
		return nil, err
	}
	c, transport := newClient(sys.base, "bench-warm", nil)
	defer transport.CloseIdleConnections()
	if err := warmUp(ctx, sys, c, st); err != nil {
		sys.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return sys, nil
}

const warmChunk = 32

func warmUp(ctx context.Context, sys *system, c *eisvc.Client, st *stream) error {
	for _, sh := range st.fresh {
		if _, _, err := c.EvalCtx(ctx, sh.iface, sh.method, sh.args, sh.opts); err != nil {
			return err
		}
	}
	if len(st.warm) == 0 {
		return nil
	}
	var reqs []eisvc.EvalRequest
	for _, cl := range st.warm {
		reqs = append(reqs, c.EvalRequestFor(cl.iface, cl.method, cl.args, cl.opts))
	}
	for pass := 0; pass < 8; pass++ {
		before, err := sys.stats(ctx)
		if err != nil {
			return err
		}
		if st.batch > 1 {
			// The batch path picks owners its own way, so it warms itself,
			// in chunks a cold node's admission queue (64) can hold.
			for i := 0; i < len(reqs); i += warmChunk {
				items, err := c.EvalBatchCtx(ctx, append([]eisvc.EvalRequest(nil), reqs[i:min(i+warmChunk, len(reqs))]...))
				if err != nil {
					return err
				}
				for _, it := range items {
					if it.Error != "" {
						return fmt.Errorf("class: %s", it.Error)
					}
				}
			}
		} else {
			for _, cl := range st.warm {
				if _, _, err := c.EvalCtx(ctx, cl.iface, cl.method, cl.args, cl.opts); err != nil {
					return err
				}
			}
		}
		after, err := sys.stats(ctx)
		if err != nil {
			return err
		}
		d := delta(before, after)
		if d["eisvc.evaluations"] == 0 && d["fleet.peer.lookups"] == 0 {
			return nil
		}
	}
	return fmt.Errorf("classes still evaluating after 8 passes")
}

// delta is what /v1/stats counted between two reads, under the names the
// per-layer metrics use.
func delta(a, b eisvc.StatsResponse) map[string]float64 {
	d := map[string]float64{
		"eisvc.evaluations":     float64(b.Evaluations - a.Evaluations),
		"eisvc.coalesced":       float64(b.Coalesced - a.Coalesced),
		"eisvc.shed_queue_full": float64(b.ShedQueueFull - a.ShedQueueFull),
		"eisvc.shed_deadline":   float64(b.ShedDeadline - a.ShedDeadline),
		"eisvc.memo.evictions":  float64(b.MemoEvictions - a.MemoEvictions),
		"eisvc.memo.hits":       float64(b.MemoHits - a.MemoHits),
		"fleet.peer.lookups":    float64(b.PeerHits + b.PeerMisses - a.PeerHits - a.PeerMisses),
		"fleet.peer.hits":       float64(b.PeerHits - a.PeerHits),
	}
	d["eisvc.memo.hit_ratio"] = ratio(d["eisvc.memo.hits"], float64(b.MemoHits+b.MemoMisses-a.MemoHits-a.MemoMisses))
	d["core.layer.hit_ratio"] = ratio(float64(b.LayerHits-a.LayerHits), float64(b.LayerHits+b.LayerMisses-a.LayerHits-a.LayerMisses))
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// invariant checks that the window did what the workload is for: a hot
// workload that evaluated, or a cold one the memo answered, measured
// something else.
func invariant(wl workload, d map[string]float64) error {
	switch wl.name {
	case "hot_zipf":
		if d["eisvc.evaluations"] != 0 {
			return fmt.Errorf("hot_zipf ran %v evaluations in the measured window; want 0", d["eisvc.evaluations"])
		}
	case "cold_exact", "mc_sample":
		if d["eisvc.memo.hits"] != 0 {
			return fmt.Errorf("%s had %v memo hits in the measured window; want 0", wl.name, d["eisvc.memo.hits"])
		}
	}
	return nil
}

func cpuTime() (time.Duration, float64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runOne(ctx context.Context, cfg runConfig) (*record, error) {
	st := cfg.wl.gen(cfg.seed)
	orc, err := newOracle(ctx, st)
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload: cfg.wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		StreamDigest: fmt.Sprintf("%016x", st.digest(prefixLen)),
		Metrics:      map[string]metric{},
	}
	if cfg.traced {
		err = runTraced(ctx, cfg, st, orc, rec)
	} else {
		err = runEndToEnd(ctx, cfg, st, orc, rec)
	}
	return rec, err
}

// runEndToEnd is the run users' numbers come from: tracing off, nothing
// wrapped, one window of cfg.seconds.
func runEndToEnd(ctx context.Context, cfg runConfig, st *stream, orc *oracle, rec *record) error {
	var sys *system
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
		}
		start := time.Now()
		var err error
		if sys, err = setup(ctx, cfg.wl, st, nil); err != nil {
			return err
		}
		rec.SetupRuns = append(rec.SetupRuns, time.Since(start).Seconds())
	}
	defer sys.close()
	r, closeClients := newRunner(st, orc, cfg.seed, sys.base, nil)
	defer closeClients()

	runtime.GC()
	before, err := sys.stats(ctx)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w := r.run(ctx, 0, cfg.span(1))
	_, rss := cpuTime()
	runtime.ReadMemStats(&m1)
	after, err := sys.stats(ctx)
	if err != nil {
		return err
	}
	if err := r.checkSamples(ctx, w, cfg.wl.oracleLimit); err != nil {
		return err
	}
	rec.Window = delta(before, after)
	rec.fill(cfg.wl, st, w)
	rec.Phases = []phase{phaseOf("measure", w)}

	ops := float64(w.sent)
	rec.SliceOpsS, rec.SliceCPUUs = w.sliceRates()
	rec.Metrics = map[string]metric{
		"throughput_ops_s":   {median(rec.SliceOpsS), "1/s"},
		"latency_p50_us":     {sliceMedian(w.lat, w.elapsed, 0.50) / 1e3, "us"},
		"latency_p90_us":     {sliceMedian(w.lat, w.elapsed, 0.90) / 1e3, "us"},
		"cpu_us_per_op":      {median(rec.SliceCPUUs), "us"},
		"allocs_per_op":      {float64(m1.Mallocs-m0.Mallocs) / ops, "count"},
		"alloc_bytes_per_op": {float64(m1.TotalAlloc-m0.TotalAlloc) / ops, "B"},
		"peak_rss_mb":        {rss, "MiB"},
		"setup_s":            {median(rec.SetupRuns), "s"},
	}
	return nil
}

// incompleteDigest stands in for the answer digest of a window too short
// to reach the digest prefix; compare skips it.
const incompleteDigest = "incomplete"

// fill copies a window's tallies into the record and judges correctness.
func (rec *record) fill(wl workload, st *stream, w *window) {
	rec.Attempted, rec.Failed = w.sent, w.failed
	rec.Mismatched, rec.Checked, rec.Requests = w.mismatched, w.checked, w.requests
	rec.AnswerDigest = incompleteDigest
	if d, ok := w.answerDigest(st.batch); ok {
		rec.AnswerDigest = fmt.Sprintf("%016x", d)
	}
	rec.P99Us, rec.P99Samples = float64(overall(w.lat, 0.99))/1e3, len(w.lat)
	rec.Correct = w.mismatched == 0 && w.checked > 0
	if err := invariant(wl, rec.Window); err != nil {
		rec.Correct, rec.Note = false, err.Error()
	}
	if w.firstErr != nil {
		rec.Note = "first failure: " + w.firstErr.Error()
	}
}
