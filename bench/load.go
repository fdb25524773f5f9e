package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
)

// numClients is the closed loop's width: the service's callers (schedsvc,
// autoopt, a resource manager) each wait for the reply before acting, and
// the box this benchmark is sized for has two cores.
const numClients = 2

// sampleEvery is the oracle's sampling rate on workloads whose every
// request is unique: one position in 32, chosen by a seeded hash.
const sampleEvery = 32

// prefixLen is how many leading positions of a window feed the answer
// digest: few enough that a window of a couple of seconds outlasts it on
// the slowest workload, so the digest covers the same positions on every
// run and every commit.
const prefixLen = 512

// answer is a served or oracle distribution, as exact vectors.
type answer struct{ support, probs []float64 }

func (a answer) equal(b answer) bool {
	return bitsEqual(a.support, b.support) && bitsEqual(a.probs, b.probs)
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (a answer) hash() uint64 {
	h := uint64(14695981039346656037)
	for _, vec := range [][]float64{a.support, a.probs} {
		for _, x := range vec {
			b := math.Float64bits(x)
			for s := 0; s < 64; s += 8 {
				h = (h ^ (b >> s & 0xff)) * 1099511628211
			}
		}
	}
	return h
}

// oracle answers a call with the tree-walking interpreter on stacks built
// apart from the served ones — never the compiler or a cache under test.
type oracle struct {
	stacks map[string]*core.Interface
	warm   []answer // per warm class of the stream
}

func newOracle(ctx context.Context, st *stream) (*oracle, error) {
	stacks, err := localStacks()
	if err != nil {
		return nil, err
	}
	o := &oracle{stacks: stacks, warm: make([]answer, len(st.warm))}
	for i, c := range st.warm {
		if o.warm[i], err = o.eval(ctx, c); err != nil {
			return nil, fmt.Errorf("oracle: class %d: %w", i, err)
		}
	}
	return o, nil
}

func (o *oracle) eval(ctx context.Context, c call) (answer, error) {
	opts := c.opts
	opts.Interpret = true
	d, err := o.stacks[c.iface].EvalCtx(ctx, c.method, c.args, opts)
	if err != nil {
		return answer{}, err
	}
	return answer{d.Support(), d.Probs()}, nil
}

type latSample struct{ at, dur int64 } // ns since window start; ns

type sampled struct {
	g   uint64
	got answer
}

// window is one closed-loop phase: what was sent, what came back, and
// every wire request's latency.
type window struct {
	elapsed    time.Duration
	lat        []latSample
	requests   int64 // wire requests
	sent       int64 // evaluations (items) attempted
	failed     int64 // non-2xx, transport error, or per-item error
	mismatched int64 // answers that differ from the oracle
	checked    int64 // answers compared with the oracle
	supportSum int64 // summed support length of answers
	prefix     []uint64
	samples    []sampled
	firstG     uint64
	nextG      uint64
	firstErr   error

	// done counts succeeded evaluations as they complete; ticks are its
	// readings, with the process CPU time, at the slice boundaries.
	done  atomic.Int64
	ticks []tick

	mu       sync.Mutex
	servedBy map[uint64]string // traced windows: wire request -> serving node
}

type tick struct {
	at, cpu time.Duration
	done    int64
}

// runner drives one stream against one system.
type runner struct {
	st      *stream
	orc     *oracle
	seed    int64
	clients []*eisvc.Client
	tr      *tracer // nil: tracing off
	warmReq []eisvc.EvalRequest
}

func newRunner(st *stream, orc *oracle, seed int64, base string, tr *tracer) (*runner, func()) {
	r := &runner{st: st, orc: orc, seed: seed, tr: tr}
	var transports []*http.Transport
	for i := 0; i < numClients; i++ {
		c, t := newClient(base, fmt.Sprintf("bench-%d", i), tr)
		r.clients = append(r.clients, c)
		transports = append(transports, t)
	}
	for _, c := range st.warm {
		r.warmReq = append(r.warmReq, r.clients[0].EvalRequestFor(c.iface, c.method, c.args, c.opts))
	}
	return r, func() {
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}
}

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *runner) isSampled(g uint64) bool {
	return mix64(uint64(r.seed)^(g+0x9e3779b97f4a7c15))%sampleEvery == 0
}

// run sends wire requests from position firstG for dur. The clients take
// the next position from one shared counter, so the mix never depends on
// how fast either of them is.
func (r *runner) run(ctx context.Context, firstG uint64, dur time.Duration) *window {
	w := &window{firstG: firstG, prefix: make([]uint64, prefixLen)}
	if r.tr != nil {
		w.servedBy = map[uint64]string{}
	}
	var next atomic.Uint64
	next.Store(firstG)
	logs := make([]*window, numClients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(dur)
	cpu0, _ := cpuTime()
	w.ticks = append(w.ticks, tick{0, cpu0, 0})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 1; k <= latencySlices; k++ {
			time.Sleep(time.Until(start.Add(dur * time.Duration(k) / latencySlices)))
			cpu, _ := cpuTime()
			w.ticks = append(w.ticks, tick{time.Since(start), cpu, w.done.Load()})
		}
	}()
	for i := range r.clients {
		logs[i] = &window{lat: make([]latSample, 0, 1<<16)}
		wg.Add(1)
		go func(c *eisvc.Client, log *window) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				r.one(ctx, c, next.Add(1)-1, start, w, log)
			}
		}(r.clients[i], logs[i])
	}
	wg.Wait()
	w.elapsed = time.Since(start)
	w.nextG = next.Load()
	for _, l := range logs {
		w.lat = append(w.lat, l.lat...)
		w.requests += l.requests
		w.sent += l.sent
		w.failed += l.failed
		w.mismatched += l.mismatched
		w.checked += l.checked
		w.supportSum += l.supportSum
		w.samples = append(w.samples, l.samples...)
		if w.firstErr == nil {
			w.firstErr = l.firstErr
		}
	}
	sort.Slice(w.samples, func(i, j int) bool { return w.samples[i].g < w.samples[j].g })
	return w
}

// one sends wire request q (one evaluation, or one batch) and checks it.
// w is the window all clients share (digest prefix, serving nodes); log is
// this client's own tally, merged when the window ends.
func (r *runner) one(ctx context.Context, c *eisvc.Client, q uint64, start time.Time, w, log *window) {
	var ref spanRef
	if r.tr != nil {
		ref = spanRef{request: int64(q) + 1, id: r.tr.newID()}
		ctx = withSpan(ctx, ref)
	}
	log.requests++
	if r.st.batch == 1 {
		cl, class := r.st.at(q)
		log.sent++
		t0 := time.Now()
		_, resp, err := c.EvalCtx(ctx, cl.iface, cl.method, cl.args, cl.opts)
		t1 := time.Now()
		r.finish(log, ref, start, t0, t1)
		if err != nil {
			log.fail(err)
			return
		}
		if w.servedBy != nil {
			w.mu.Lock()
			w.servedBy[q] = resp.Node
			w.mu.Unlock()
		}
		r.check(w, log, q-w.firstG, q, class, answer{resp.Dist.Support, resp.Dist.Probs})
		w.done.Add(1)
		return
	}
	n := uint64(r.st.batch)
	reqs := make([]eisvc.EvalRequest, n)
	classes := make([]int, n)
	for j := range reqs {
		cl, class := r.st.at(q*n + uint64(j))
		classes[j] = class
		if class >= 0 {
			reqs[j] = r.warmReq[class]
		} else {
			reqs[j] = c.EvalRequestFor(cl.iface, cl.method, cl.args, cl.opts)
		}
	}
	log.sent += int64(n)
	t0 := time.Now()
	items, err := c.EvalBatchCtx(ctx, reqs)
	t1 := time.Now()
	r.finish(log, ref, start, t0, t1)
	if err != nil {
		log.failed += int64(n) - 1
		log.fail(err)
		return
	}
	for j, it := range items {
		if it.Status != http.StatusOK || it.Error != "" || it.Dist == nil {
			log.fail(fmt.Errorf("batch item: status %d: %s", it.Status, it.Error))
			continue
		}
		g := q*n + uint64(j)
		r.check(w, log, g-w.firstG*n, g, classes[j], answer{it.Dist.Support, it.Dist.Probs})
		w.done.Add(1)
	}
}

func (r *runner) finish(log *window, ref spanRef, start, t0, t1 time.Time) {
	log.lat = append(log.lat, latSample{int64(t0.Sub(start)), int64(t1.Sub(t0))})
	if r.tr != nil {
		r.tr.record(ref.id, "request", t0, t1, 0, ref.request)
	}
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// check compares a warm class's answer with the oracle at once (a stored
// vector compare) and keeps a sampled unique answer for checkSamples: the
// interpreter is too slow to run beside the system it is checking. rel is
// the evaluation's offset in the window, g its stream position.
func (r *runner) check(w, log *window, rel, g uint64, class int, got answer) {
	log.supportSum += int64(len(got.support))
	if rel < prefixLen {
		w.prefix[rel] = got.hash() // each position belongs to one client
	}
	if class >= 0 {
		log.checked++
		if !got.equal(r.orc.warm[class]) {
			log.mismatched++
		}
		return
	}
	if r.isSampled(g) {
		log.samples = append(log.samples, sampled{g, got})
	}
}

// checkSamples runs the oracle over at most limit of the window's sampled
// unique answers, evenly spaced, so the check fits the run's time budget.
func (r *runner) checkSamples(ctx context.Context, w *window, limit int) error {
	step := 1
	if len(w.samples) > limit {
		step = (len(w.samples) + limit - 1) / limit
	}
	for i := 0; i < len(w.samples); i += step {
		s := w.samples[i]
		c, _ := r.st.at(s.g)
		want, err := r.orc.eval(ctx, c)
		if err != nil {
			return fmt.Errorf("oracle: position %d: %w", s.g, err)
		}
		w.checked++
		if !s.got.equal(want) {
			w.mismatched++
		}
	}
	return nil
}

// answerDigest folds the window's leading answers in stream order, or
// reports false if the window ended before the prefix was complete.
func (w *window) answerDigest(batch int) (uint64, bool) {
	if (w.nextG-w.firstG)*uint64(batch) < prefixLen {
		return 0, false
	}
	h := uint64(14695981039346656037)
	for _, x := range w.prefix {
		for s := 0; s < 64; s += 8 {
			h = (h ^ (x >> s & 0xff)) * 1099511628211
		}
	}
	return h, true
}

// percentile returns the q-quantile (nearest rank) of sorted durations.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// latencySlices is how many equal parts of a window each get their own
// percentile; the reported figure is the median over the parts, which a
// single GC pause or scheduler hiccup in one part cannot move.
const latencySlices = 10

// sliceMedian cuts the window into latencySlices equal time slices by
// request start, takes the q-quantile of each non-empty slice, and
// returns the median of those, in nanoseconds.
func sliceMedian(lat []latSample, elapsed time.Duration, q float64) float64 {
	buckets := make([][]int64, latencySlices)
	width := int64(elapsed)/latencySlices + 1
	for _, s := range lat {
		i := s.at / width
		if i >= latencySlices {
			i = latencySlices - 1
		}
		buckets[i] = append(buckets[i], s.dur)
	}
	var per []float64
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		per = append(per, float64(percentile(b, q)))
	}
	return median(per)
}

// sliceRates returns, per slice of the window, the evaluations completed
// per second and the process CPU microseconds per evaluation. The reported
// figures are their medians, which a slice the machine spent descheduled
// or throttled does not move.
func (w *window) sliceRates() (rates, costs []float64) {
	for i := 1; i < len(w.ticks); i++ {
		a, b := w.ticks[i-1], w.ticks[i]
		if n := float64(b.done - a.done); n > 0 {
			rates = append(rates, n/(b.at-a.at).Seconds())
			costs = append(costs, float64((b.cpu-a.cpu).Microseconds())/n)
		}
	}
	return rates, costs
}

// overall returns the q-quantile of every latency in the window, ns.
func overall(lat []latSample, q float64) int64 {
	d := make([]int64, len(lat))
	for i, s := range lat {
		d[i] = s.dur
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return percentile(d, q)
}
