package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/fleet"
	"energyclarity/internal/opt"
)

// A traced run spends its seconds in three parts: an untraced reference
// window (so the tracing overhead is a difference between two windows of
// one process), the traced window, and the stage replay.
const (
	refShare    = 0.25
	tracedShare = 0.25
	replayShare = 0.5
	// replayStages is how many stage budgets share the replay's time.
	replayStages = 20
	// replaySample is how many evaluations of the stream the codec, memo
	// and distribution stages cycle over.
	replaySample = 256
)

// timeLoop calls fn(0), fn(1), ... until budget is spent (at least once)
// and returns the mean nanoseconds per call and the number of calls.
func timeLoop(budget time.Duration, fn func(i int)) (float64, int) {
	start := time.Now()
	n := 0
	for {
		fn(n)
		n++
		if el := time.Since(start); el >= budget {
			return float64(el) / float64(n), n
		}
	}
}

// runTraced measures the per-layer metrics: spans around the benchmark's
// own calls into each layer, counters read at the same boundaries, and the
// same stream replayed stage by stage into exported functions for the
// layers a wrapper cannot reach.
func runTraced(ctx context.Context, cfg runConfig, st *stream, orc *oracle, rec *record) error {
	tr := newTracer()
	sys, err := setup(ctx, cfg.wl, st, tr)
	if err != nil {
		return err
	}
	defer sys.close()

	plain, closePlain := newRunner(st, orc, cfg.seed, sys.base, nil)
	ref := plain.run(ctx, 0, cfg.span(refShare))
	closePlain()

	r, closeClients := newRunner(st, orc, cfg.seed, sys.base, tr)
	defer closeClients()
	before, err := sys.stats(ctx)
	if err != nil {
		return err
	}
	prog0 := core.ReadProgramStats()
	var route0 fleet.RouterCounters
	if sys.router != nil {
		route0 = sys.router.Counters()
	}
	w := r.run(ctx, ref.nextG, cfg.span(tracedShare))
	after, err := sys.stats(ctx)
	if err != nil {
		return err
	}
	prog1 := core.ReadProgramStats()
	if err := r.checkSamples(ctx, w, cfg.wl.oracleLimit/2); err != nil {
		return err
	}
	rec.Window = delta(before, after)
	rec.fill(cfg.wl, st, w)
	rec.Phases = []phase{phaseOf("reference", ref), phaseOf("traced", w)}
	rec.Failed += ref.failed
	rec.Attempted += ref.sent
	if ref.mismatched > 0 {
		rec.Correct = false
	}

	m := map[string]float64{}
	for k, v := range rec.Window {
		m[k] = v
	}
	for _, c := range r.clients {
		m["eisvc.client.retries"] += float64(c.Counters().Retries)
		m["eisvc.client.hedges"] += float64(c.Counters().Hedges)
	}
	m["opt.compiled_evals"] = float64(prog1.CompiledEvals - prog0.CompiledEvals)
	m["opt.compile_fallbacks"] = float64(prog1.CompileFallbacks - prog0.CompileFallbacks)
	m["energy.dist.support_len"] = ratio(float64(w.supportSum), float64(w.sent-w.failed))
	m["trace.overhead_share"] = sliceMedian(w.lat, w.elapsed, 0.5)/sliceMedian(ref.lat, ref.elapsed, 0.5) - 1

	rp := &replayer{ctx: ctx, cfg: cfg, st: st, sys: sys, m: m, pos: w.nextG * uint64(st.batch)}
	if err := rp.run(w); err != nil {
		return err
	}

	// The transport span's self time is what the socket and net/http cost
	// on both sides; the request span's is the client's own work, of
	// which the replay explains the encode and the decode.
	mean, self := selfTimes(tr.spans)
	m["transport.tcp_ns"] = self["transport"]
	m["budget.residual_share"] = (self["request"] - m["eisvc.client.encode_ns"] - m["eisvc.client.decode_ns"]) / mean["request"]
	if sys.router != nil {
		rc := sys.router.Counters()
		m["fleet.router.routed"] = float64(rc.Routed - route0.Routed)
		m["fleet.router.failovers"] = float64(rc.Failovers - route0.Failovers)
		m["fleet.router.exhausted"] = float64(rc.Exhausted - route0.Exhausted)
		m["fleet.router.affinity_hits"] = float64(rc.AffinityHits - route0.AffinityHits)
		m["fleet.router.serve_ns"] = mean["router"]
		m["fleet.router.hop_ns"] = mean["router"] - m["eisvc.server.serve_ns"]
	}
	for _, d := range layerDefs {
		rec.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	return tr.write(filepath.Join(cfg.outDir, "trace-"+cfg.wl.name+".json"))
}

// replayer feeds the stream, continued from where the traced window
// stopped, into each layer's exported functions and fills m.
type replayer struct {
	ctx    context.Context
	cfg    runConfig
	st     *stream
	sys    *system
	m      map[string]float64
	pos    uint64 // next unused stream position
	budget time.Duration
	stacks map[string]*core.Interface
	calls  []call        // the sample the stages below cycle over
	dists  []energy.Dist // its answers
	err    error         // first error of any stage
}

func (rp *replayer) note(err error) {
	if err != nil && rp.err == nil {
		rp.err = err
	}
}

func (rp *replayer) run(w *window) error {
	rp.budget = rp.cfg.span(replayShare) / replayStages
	var err error
	if rp.stacks, err = localStacks(); err != nil {
		return err
	}
	rp.core()
	if rp.err != nil {
		return fmt.Errorf("replay: core eval: %w", rp.err)
	}
	rp.codec()
	if err := rp.stores(); err != nil {
		return err
	}
	if err := rp.compilers(); err != nil {
		return err
	}
	rp.serve(w)
	if rp.err != nil {
		return fmt.Errorf("replay: %w", rp.err)
	}
	return nil
}

// core: the stream's own evaluations on a local stack, no service, with a
// layer cache attached as the server attaches its own. The first
// replaySample of them become the sample for the later stages.
func (rp *replayer) core() {
	layer := core.NewLayerCache(0)
	eval := func(c call, interpret bool) energy.Dist {
		c.opts.Layer, c.opts.Interpret = layer, interpret
		d, err := rp.stacks[c.iface].EvalCtx(rp.ctx, c.method, c.args, c.opts)
		rp.note(err)
		return d
	}
	evalNext := func(int) {
		c, _ := rp.st.at(rp.pos)
		rp.pos++
		d := eval(c, false)
		if len(rp.calls) < replaySample {
			rp.calls, rp.dists = append(rp.calls, c), append(rp.dists, d)
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	evalNs, evals := timeLoop(2*rp.budget, evalNext)
	runtime.ReadMemStats(&ms1)
	rp.m["core.eval_ns"] = evalNs
	rp.m["core.eval_allocs"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(evals)
	if opts := rp.calls[0].opts; opts.Mode == core.ModeMonteCarlo {
		rp.m["core.mc.samples_per_s"] = float64(opts.Samples) / (evalNs / 1e9)
	}
	for len(rp.calls) < replaySample { // the budget ended before the sample was full
		evalNext(0)
	}
	rp.m["core.interpret_ns"], _ = timeLoop(rp.budget, func(i int) { eval(rp.calls[i%len(rp.calls)], true) })
}

// codec: both directions of both ends. One wire request is one
// evaluation, or one batch of them.
func (rp *replayer) codec() {
	client := eisvc.NewClient("http://replay")
	single := rp.st.batch == 1
	var reqs []eisvc.BatchEvalRequest
	for i := 0; i+rp.st.batch <= len(rp.calls); i += rp.st.batch {
		var breq eisvc.BatchEvalRequest
		for _, c := range rp.calls[i : i+rp.st.batch] {
			breq.Requests = append(breq.Requests, client.EvalRequestFor(c.iface, c.method, c.args, c.opts))
		}
		reqs = append(reqs, breq)
	}
	var buf bytes.Buffer
	encodeRequest := func(k int) {
		buf.Reset()
		if single {
			rp.note(eisvc.EncodeEvalRequest(&buf, &reqs[k].Requests[0]))
		} else {
			rp.note(eisvc.EncodeBatchEvalRequest(&buf, &reqs[k]))
		}
	}
	// As the server does: ToWire on every answer, then the frame.
	encodeResponse := func(k int) {
		buf.Reset()
		first := k * rp.st.batch
		if single {
			c := rp.calls[first]
			rp.note(eisvc.EncodeEvalResponse(&buf, &eisvc.EvalResponse{
				Interface: c.iface, Version: 1, Method: c.method, Mode: c.opts.Mode.String(),
				Dist: eisvc.ToWire(rp.dists[first]), Cached: true, Node: "node-1",
			}))
			return
		}
		resp := eisvc.BatchEvalResponse{Results: make([]eisvc.BatchEvalItem, rp.st.batch)}
		for j := range resp.Results {
			c, wd := rp.calls[first+j], eisvc.ToWire(rp.dists[first+j])
			resp.Results[j] = eisvc.BatchEvalItem{
				Interface: c.iface, Version: 1, Method: c.method, Mode: c.opts.Mode.String(),
				Status: http.StatusOK, Dist: &wd, Cached: true,
			}
		}
		rp.note(eisvc.EncodeBatchEvalResponse(&buf, &resp))
	}
	var reqBytes, respBytes [][]byte
	for k := range reqs {
		encodeRequest(k)
		reqBytes = append(reqBytes, bytes.Clone(buf.Bytes()))
		encodeResponse(k)
		respBytes = append(respBytes, bytes.Clone(buf.Bytes()))
	}
	rp.m["eisvc.client.encode_ns"], _ = timeLoop(rp.budget, func(i int) { encodeRequest(i % len(reqs)) })
	rp.m["eisvc.codec.encode_response_ns"], _ = timeLoop(rp.budget, func(i int) { encodeResponse(i % len(reqs)) })
	rp.m["eisvc.codec.decode_request_ns"], _ = timeLoop(rp.budget, func(i int) {
		var err error
		if single {
			_, err = eisvc.DecodeEvalRequest(reqBytes[i%len(reqBytes)])
		} else {
			_, err = eisvc.DecodeBatchEvalRequest(reqBytes[i%len(reqBytes)])
		}
		rp.note(err)
	})
	rp.m["eisvc.client.decode_ns"], _ = timeLoop(rp.budget, func(i int) {
		if !single {
			_, err := eisvc.DecodeBatchEvalResponse(respBytes[i%len(respBytes)])
			rp.note(err)
			return
		}
		resp, err := eisvc.DecodeEvalResponse(respBytes[i%len(respBytes)])
		if err == nil {
			_, err = resp.Dist.Dist()
		}
		rp.note(err)
	})
}

// stores: the memo (restored from the warmed first server's snapshot, so
// it is full and every put evicts), the ledger, the snapshot file, the
// distribution constructors behind them, and the ring.
func (rp *replayer) stores() error {
	calls, dists, budget := rp.calls, rp.dists, rp.budget
	srv := rp.sys.servers()[0]
	snap := srv.CacheSnapshot()
	if len(snap.Memo) == 0 {
		return fmt.Errorf("replay: warmed server has an empty memo")
	}
	memo := eisvc.NewMemo(1024)
	memo.Restore(snap.Memo)
	rp.m["eisvc.memo.get_ns"], _ = timeLoop(budget, func(i int) {
		if _, ok := memo.Get(snap.Memo[i%len(snap.Memo)].Key); !ok {
			rp.note(fmt.Errorf("restored memo lost a key"))
		}
	})
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = snap.Memo[i%len(snap.Memo)].Key + "#" + strconv.Itoa(i)
	}
	rp.m["eisvc.memo.put_ns"], _ = timeLoop(budget, func(i int) { memo.Put(keys[i%len(keys)], dists[i%len(dists)]) })
	ledger := eisvc.NewLedger()
	rp.m["eisvc.ledger.record_ns"], _ = timeLoop(budget, func(i int) {
		ledger.Record("bench-0", calls[i%len(calls)].iface, dists[i%len(dists)], true)
	})

	path := filepath.Join(rp.cfg.outDir, "snapshot-"+rp.cfg.wl.name+".eisnap")
	saveNs, _ := timeLoop(budget/2, func(int) { rp.note(srv.SaveCacheSnapshot(path)) })
	loadNs, _ := timeLoop(budget/2, func(int) {
		_, _, err := eisvc.NewServer(eisvc.Config{}).LoadCacheSnapshot(path)
		rp.note(err)
	})
	rp.note(os.Remove(path))
	rp.m["eisvc.snapshot.save_ms"], rp.m["eisvc.snapshot.load_ms"] = saveNs/1e6, loadNs/1e6

	supports, probs := make([][]float64, len(dists)), make([][]float64, len(dists))
	for i, d := range dists {
		supports[i], probs[i] = d.Support(), d.Probs()
	}
	rp.m["energy.dist.from_sorted_ns"], _ = timeLoop(budget, func(i int) {
		_, err := energy.FromSorted(supports[i%len(dists)], probs[i%len(dists)])
		rp.note(err)
	})
	rp.m["energy.dist.add_ns"], _ = timeLoop(budget, func(i int) {
		if dists[i%len(dists)].Add(dists[(i+1)%len(dists)]).IsZero() {
			rp.note(fmt.Errorf("sum of two answers is empty"))
		}
	})

	if rp.sys.fleet != nil {
		ring := fleet.NewRing(0)
		for _, node := range rp.sys.fleet.Nodes() {
			ring.Add(node.ID)
		}
		rp.m["fleet.ring.lookup_ns"], _ = timeLoop(budget, func(i int) {
			if len(ring.Lookup(calls[i%len(calls)].iface, fleet.DefaultReplication)) == 0 {
				rp.note(fmt.Errorf("ring lookup found no owner"))
			}
		})
	}
	return nil
}

// compilers: what set-up pays to turn source into programs, and a first
// request pays on top of a later one.
func (rp *replayer) compilers() error {
	cnn, err := nativeCNN()
	if err != nil {
		return err
	}
	registry := map[string]*core.Interface{"cnn_forward": cnn}
	rp.m["eil.parse_ns"], _ = timeLoop(rp.budget, func(i int) {
		_, err := eil.Parse(fixtureSources[i%len(fixtureSources)])
		rp.note(err)
	})
	rp.m["eil.compile_ns"], _ = timeLoop(rp.budget, func(i int) {
		_, err := eil.Compile(fixtureSources[i%len(fixtureSources)], registry)
		rp.note(err)
	})

	var methods []call // one call per distinct (interface, method)
	seen := map[string]bool{}
	for _, c := range rp.calls {
		if !seen[c.iface+"."+c.method] {
			seen[c.iface+"."+c.method] = true
			methods = append(methods, c)
		}
	}
	var compile, first time.Duration
	rounds := 0
	for start := time.Now(); rounds == 0 || time.Since(start) < 2*rp.budget; rounds++ {
		fresh, err := localStacks() // untimed: nothing is compiled on a fresh stack
		if err != nil {
			return err
		}
		for _, c := range methods {
			t0 := time.Now()
			_, err := opt.CompileMethod(fresh[c.iface], c.method)
			compile += time.Since(t0)
			rp.note(err)
			t0 = time.Now()
			_, err = fresh[c.iface].EvalCtx(rp.ctx, c.method, c.args, c.opts)
			first += time.Since(t0)
			rp.note(err)
		}
	}
	rp.m["opt.compile_ns"] = float64(compile) / float64(rounds*len(methods))
	rp.m["opt.first_eval_ns"] = float64(first) / float64(rounds*len(methods))
	return nil
}

// timedLoopback serves requests from a handler in process and adds up the
// time spent inside it, so client-side encode and decode stay out.
type timedLoopback struct {
	next  http.RoundTripper
	spent time.Duration
	calls int
}

func (t *timedLoopback) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	t.spent += time.Since(start)
	t.calls++
	return resp, err
}

// serve: Server.ServeHTTP in process, through the loopback transport. A
// hot class goes to the node that served it in the traced window w;
// unique requests and whole batches go to the first node.
func (rp *replayer) serve(w *window) {
	loop := &timedLoopback{}
	client := eisvc.NewClient("http://loopback")
	client.ID, client.Binary = "bench-replay", true
	client.SetTransport(loop)
	transports := map[string]http.RoundTripper{}
	aim := func(node string) {
		if transports[node] == nil {
			target := rp.sys.servers()[0]
			if rp.sys.fleet != nil {
				if nd, ok := rp.sys.fleet.Node(node); ok {
					target = nd.Server
				}
			}
			transports[node] = eisvc.NewLoopbackTransport(target)
		}
		loop.next = transports[node]
	}
	classNode := map[int]string{}
	for q, node := range w.servedBy {
		if _, class := rp.st.at(q); class >= 0 {
			classNode[class] = node
		}
	}
	timeLoop(2*rp.budget, func(int) {
		if rp.st.batch > 1 {
			reqs := make([]eisvc.EvalRequest, rp.st.batch)
			for j := range reqs {
				c, _ := rp.st.at(rp.pos)
				rp.pos++
				reqs[j] = client.EvalRequestFor(c.iface, c.method, c.args, c.opts)
			}
			aim("")
			_, err := client.EvalBatchCtx(rp.ctx, reqs)
			rp.note(err)
			return
		}
		c, class := rp.st.at(rp.pos)
		rp.pos++
		node, known := classNode[class]
		if class >= 0 && !known {
			return // not seen in the traced window: no node to ask
		}
		aim(node)
		_, _, err := client.EvalCtx(rp.ctx, c.iface, c.method, c.args, c.opts)
		rp.note(err)
	})
	rp.m["eisvc.server.serve_ns"] = ratio(float64(loop.spent), float64(loop.calls))
}
