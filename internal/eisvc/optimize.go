package eisvc

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"energyclarity/internal/autoopt"
	"energyclarity/internal/core"
)

// handleOptimize answers POST /v1/optimize: sweep a knob space over a
// registered interface and fit the exact energy/latency Pareto frontier
// (see internal/autoopt). Every configuration evaluates through
// evalShared — the same memo/singleflight/peer/admission funnel as
// /v1/eval — so a repeat sweep is almost entirely memo-served and a
// sweep cannot bypass the worker-slot bounds. The frontier itself is
// pure math over the samples; with the engine bit-deterministic at any
// parallelism, so is the sweep digest.
func (s *Server) handleOptimize(r *http.Request, req *OptimizeRequest) (*OptimizeResponse, error) {
	if req.EnergyMethod == "" || req.LatencyMethod == "" {
		return nil, reject(http.StatusBadRequest, "optimize: energy_method and latency_method are required")
	}
	if req.Mode == "" {
		req.Mode = core.ModeExpected.String()
	}
	// Reuse the eval validation path for the caps, the mode, and the
	// registry lookup; each grid configuration later supplies the args.
	probe := EvalRequest{
		Interface: req.Interface,
		Method:    req.EnergyMethod,
		Mode:      req.Mode,
		Samples:   req.Samples,
		Seed:      req.Seed,
		EnumLimit: req.EnumLimit,
	}
	iface, version, opts, rej := s.checkEvalRequest(&probe)
	if rej != nil {
		return nil, rej
	}
	space := make(autoopt.Space, len(req.Knobs))
	for i, k := range req.Knobs {
		space[i] = autoopt.Knob{Name: k.Name, Values: k.Values}
	}
	maxConfigs := req.MaxConfigs
	if maxConfigs <= 0 || maxConfigs > autoopt.DefaultMaxConfigs {
		maxConfigs = autoopt.DefaultMaxConfigs
	}
	if err := space.Validate(); err != nil {
		return nil, reject(http.StatusBadRequest, "optimize: %v", err)
	}
	if n := space.Size(); n > maxConfigs {
		return nil, reject(http.StatusBadRequest, "optimize: knob space has %d configurations, cap is %d", n, maxConfigs)
	}

	spec := autoopt.Spec{Space: space, SLOMs: req.SLOMs, MaxConfigs: maxConfigs}
	wait := s.deadlineFor(&EvalRequest{DeadlineMs: req.DeadlineMs})
	res, err := autoopt.Sweep(r.Context(), spec, s.sweepEvaluator(req, version, iface, opts, wait))
	if err != nil {
		return nil, err
	}
	s.optimizeEvals.Add(uint64(res.Evals))
	s.optimizeMemoServed.Add(uint64(res.MemoServed))

	return &OptimizeResponse{
		Interface:   req.Interface,
		Version:     version,
		Mode:        opts.Mode.String(),
		Knobs:       req.Knobs,
		SLOMs:       req.SLOMs,
		Configs:     res.Configs,
		Evaluated:   res.Evaluated,
		Skipped:     res.Skipped,
		Evals:       res.Evals,
		MemoServed:  res.MemoServed,
		Frontier:    wirePoints(res.Frontier),
		Digest:      res.Digest,
		Recommended: wirePoint(res.Recommended),
		MaxPerf:     wirePoint(res.MaxPerf),
		SavingsFrac: res.SavingsFrac,
		Node:        s.cfg.NodeID,
	}, nil
}

// sweepEvaluator resolves grid configurations concurrently — up to the
// request's Parallelism (default: the worker count) in flight at once,
// each configuration costing one energy and one latency evaluation
// through evalShared. A sample is memo-served when a cache answered it
// without a fresh local evaluation: a memo or peer hit, or coalescing
// onto a flight another request leads. Errors keep grid order, so the
// reported failure is deterministic.
func (s *Server) sweepEvaluator(req *OptimizeRequest, version uint64, iface *core.Interface, opts core.EvalOptions, wait time.Duration) autoopt.Evaluator {
	par := req.Parallelism
	if par <= 0 {
		par = s.cfg.Workers
	}
	return func(ctx context.Context, _ autoopt.Space, grid [][]float64) ([]autoopt.Sample, error) {
		out := make([]autoopt.Sample, len(grid))
		errs := make([]error, len(grid))
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for i, cfg := range grid {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int, cfg []float64) {
				defer wg.Done()
				defer func() { <-sem }()
				args := numArgs(cfg)
				evalOne := func(method string) (evalOutcome, bool, error) {
					key := memoKey(req.Interface, version, method, args, opts)
					o, coalesced, err := s.evalShared(ctx, wait, key, iface, method, args, opts)
					if err != nil {
						return o, false, fmt.Errorf("optimize %s.%s%v: %w", req.Interface, method, cfg, err)
					}
					return o, o.memoHit || coalesced, nil
				}
				eo, eServed, err := evalOne(req.EnergyMethod)
				if err != nil {
					errs[i] = err
					return
				}
				lo, lServed, err := evalOne(req.LatencyMethod)
				if err != nil {
					errs[i] = err
					return
				}
				sample := autoopt.Sample{
					EnergyJ:   eo.wire.Mean,
					LatencyMs: lo.wire.P99,
					Evals:     2,
				}
				if eServed {
					sample.MemoServed++
				}
				if lServed {
					sample.MemoServed++
				}
				out[i] = sample
			}(i, cfg)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
}

// numArgs turns one grid configuration into evaluation arguments.
func numArgs(cfg []float64) []core.Value {
	args := make([]core.Value, len(cfg))
	for j, v := range cfg {
		args[j] = core.Num(v)
	}
	return args
}

func wirePoints(pts []autoopt.Point) []OptimizePoint {
	out := make([]OptimizePoint, len(pts))
	for i, p := range pts {
		out[i] = OptimizePoint{Knobs: p.Knobs, EnergyJ: p.EnergyJ, LatencyMs: p.LatencyMs}
	}
	return out
}

func wirePoint(p *autoopt.Point) *OptimizePoint {
	if p == nil {
		return nil
	}
	return &OptimizePoint{Knobs: p.Knobs, EnergyJ: p.EnergyJ, LatencyMs: p.LatencyMs}
}

// --- client side ---

// Optimize asks the daemon (or a fleet router) for the cheapest
// operating point of a registered interface under a p99 latency SLO.
func (c *Client) Optimize(req OptimizeRequest) (*OptimizeResponse, error) {
	return c.OptimizeCtx(context.Background(), req)
}

// OptimizeCtx is Optimize bounded by ctx: cancelling it abandons the
// request and the daemon cancels the in-flight sweep evaluations. A
// sweep is deterministic and touches no state beyond the caches, so
// like Eval it is idempotent — it retries (and hedges) per the client's
// policy, and a sweep replayed after a mid-sweep node failure lands on
// a peer with a bit-identical frontier. DeadlineMs has EvalBatch
// stamping semantics (0 takes the client's Deadline, NoDeadline sends
// none).
func (c *Client) OptimizeCtx(ctx context.Context, req OptimizeRequest) (*OptimizeResponse, error) {
	switch {
	case req.DeadlineMs < 0:
		req.DeadlineMs = 0
	case req.DeadlineMs == 0 && c.Deadline > 0:
		req.DeadlineMs = int(c.Deadline / time.Millisecond)
	}
	return OptimizeEndpoint.call(ctx, c, &req)
}

// DefaultSweepBatch chunks BatchEvaluator's /v1/evalbatch queries.
const DefaultSweepBatch = 256

// BatchEvaluator returns an autoopt.Evaluator that resolves grid
// configurations as canonicalized /v1/evalbatch queries — the
// pure-fleet-client spelling of a sweep (like internal/schedsvc's cost
// model), for callers that keep the Pareto math local and buy only the
// evaluations from the fleet. Each configuration costs one energyMethod
// and one latencyMethod item; chunks of batchSize items (0 =
// DefaultSweepBatch) go out per round trip. Per-item failures are fatal
// to the sweep — an exact frontier cannot be fit over partial samples.
// Items a cache answered (memo, batch dedup, coalesced, or peer) count
// as memo-served.
func (c *Client) BatchEvaluator(name, energyMethod, latencyMethod string, opts core.EvalOptions, batchSize int) autoopt.Evaluator {
	if batchSize <= 0 {
		batchSize = DefaultSweepBatch
	}
	return func(ctx context.Context, _ autoopt.Space, grid [][]float64) ([]autoopt.Sample, error) {
		out := make([]autoopt.Sample, len(grid))
		reqs := make([]EvalRequest, 0, 2*len(grid))
		for _, cfg := range grid {
			args := numArgs(cfg)
			reqs = append(reqs,
				c.EvalRequestFor(name, energyMethod, args, opts),
				c.EvalRequestFor(name, latencyMethod, args, opts))
		}
		for off := 0; off < len(reqs); off += batchSize {
			end := min(off+batchSize, len(reqs))
			items, err := c.EvalBatchCtx(ctx, reqs[off:end])
			if err != nil {
				return nil, err
			}
			for k := range items {
				it := &items[k]
				idx := off + k
				if it.Error != "" {
					return nil, fmt.Errorf("eisvc: sweep item %s.%s: %d %s", it.Interface, it.Method, it.Status, it.Error)
				}
				if it.Dist == nil {
					return nil, fmt.Errorf("eisvc: sweep item %s.%s: no distribution", it.Interface, it.Method)
				}
				d, err := it.Dist.Dist()
				if err != nil {
					return nil, fmt.Errorf("eisvc: malformed distribution from daemon: %w", err)
				}
				s := &out[idx/2]
				s.Evals++
				if it.Cached || it.Deduped || it.Coalesced || it.Peer {
					s.MemoServed++
				}
				if idx%2 == 0 {
					s.EnergyJ = d.Mean()
				} else {
					s.LatencyMs = d.Quantile(0.99)
				}
			}
		}
		return out, nil
	}
}
