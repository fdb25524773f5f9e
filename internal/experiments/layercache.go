package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"energyclarity/internal/core"
	"energyclarity/internal/eisvc"
	"energyclarity/internal/energy"
	"energyclarity/internal/nn"
)

// E12 is the compositional-caching experiment: a family of service
// interfaces that share one GPT-2 model stack (and through it one device
// interface) is served by the daemon under a Zipf request trace, once with
// the layer cache disabled and once enabled. The memo cache alone can only
// deduplicate *identical* top-level requests; the layer cache additionally
// shares sub-evaluations *across* request classes and services — every
// class's generate() decomposes into prefill/decode_token/kernel calls
// that overlap heavily with other classes' — so cold evaluations collapse
// from "walk the whole kernel tree" to "a few subtree lookups". The
// experiment measures the trace wall time and cold-request latency both
// ways and verifies the answers are bit-identical, then issues one
// batched request over every class to show server-side deduplication.

// E12 trace shape.
const (
	e12Services   = 3       // service interfaces sharing one model stack
	e12TokenOpts  = 4       // new_tokens choices per service
	e12Requests   = 60      // sequential requests in the Zipf trace
	e12ZipfS      = 1.2     // Zipf exponent
	e12PromptLen  = 64      // shared prompt length
	e12TokenStep  = 4       // class t asks for (t+1)*e12TokenStep new tokens
	e12BatchDups  = 2       // duplicate copies of each class in the batch phase
	e12LayerCap   = 1 << 18 // layer-cache capacity for the warm run
	e12ServiceHit = 0.25    // per-service request-cache Bernoulli base
)

// e12Classes is the number of distinct (service, new_tokens) classes.
const e12Classes = e12Services * e12TokenOpts

// E12Result compares the same Zipf trace with the layer cache off and on.
type E12Result struct {
	Requests  int
	Classes   int
	WallOffMs float64 // whole-trace wall time, layer cache disabled
	WallOnMs  float64 // whole-trace wall time, layer cache enabled
	Speedup   float64 // WallOffMs / WallOnMs

	ColdOff       int     // cold (non-memo-hit) requests, cache off
	ColdOn        int     // cold requests, cache on (same trace ⇒ same count)
	ColdP50OffMs  float64 // p50 cold latency, cache off
	ColdP50OnMs   float64 // p50 cold latency, cache on
	ColdMeanOffMs float64
	ColdMeanOnMs  float64

	LayerHits    uint64
	LayerMisses  uint64
	LayerHitRate float64
	BitIdentical bool // every class's distribution matched exactly

	BatchItems   int // batch phase: items submitted in one request
	BatchDeduped int // items answered by in-batch deduplication
	BatchCached  int // items answered from the memo
}

// Table renders E12.
func (r *E12Result) Table() *Table {
	t := &Table{
		ID:     "E12",
		Title:  "Compositional layer cache: shared sub-evaluations across stacks",
		Header: []string{"config", "wall ms", "cold p50 ms", "cold mean ms", "layer hit rate"},
		Rows: [][]string{
			{"layer cache off", fmt.Sprintf("%.1f", r.WallOffMs),
				fmt.Sprintf("%.2f", r.ColdP50OffMs), fmt.Sprintf("%.2f", r.ColdMeanOffMs), "—"},
			{"layer cache on", fmt.Sprintf("%.1f", r.WallOnMs),
				fmt.Sprintf("%.2f", r.ColdP50OnMs), fmt.Sprintf("%.2f", r.ColdMeanOnMs),
				pct(r.LayerHitRate)},
		},
	}
	ident := "bit-identical"
	if !r.BitIdentical {
		ident = "MISMATCH"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d requests over %d Zipf(s=%.1f) classes; %d services share one gpt2 stack; %s answers; %.1fx trace speedup",
			r.Requests, r.Classes, e12ZipfS, e12Services, ident, r.Speedup),
		fmt.Sprintf("layer cache: %d hits / %d misses across the warm trace", r.LayerHits, r.LayerMisses),
		fmt.Sprintf("batch phase: %d items in one /v1/evalbatch — %d deduplicated in-batch, %d memo-cached",
			r.BatchItems, r.BatchDeduped, r.BatchCached))
	return t
}

// e12Daemon starts a daemon hosting e12Services native service interfaces,
// each with its own request-cache ECV, all bound to one shared GPT-2 stack
// on the calibrated RTX 4090 device interface.
func e12Daemon(cfg eisvc.Config) (base string, shutdown func(), err error) {
	rig, err := Rig4090()
	if err != nil {
		return "", nil, err
	}
	dev := rig.Coef.DeviceInterface(rig.Spec)
	stack, err := nn.StackInterface(nn.GPT2Small(), dev)
	if err != nil {
		return "", nil, err
	}
	srv := eisvc.NewServer(cfg)
	for sIdx := 0; sIdx < e12Services; sIdx++ {
		p := e12ServiceHit + 0.1*float64(sIdx)
		svc := core.New(fmt.Sprintf("svc%d", sIdx)).
			MustECV(core.BoolECV("request_hit", p, "request served from the service's own cache")).
			MustBind("llm", stack).
			MustMethod(core.Method{
				Name: "chat", Params: []string{"prompt_len", "new_tokens"},
				Doc: "energy of one chat turn: cached answer or a full generate",
				Body: func(c *core.Call) energy.Joules {
					if c.ECVBool("request_hit") {
						return 0.05 // serving a cached answer is ~free
					}
					return c.E("llm", "generate", core.Num(c.Num(0)), core.Num(c.Num(1)))
				},
			})
		if _, err := srv.Registry().RegisterInterface(svc.Name(), svc); err != nil {
			return "", nil, err
		}
	}
	return eisvc.ServeLoopback(srv)
}

// e12Class decodes class k into its service name and eval arguments.
func e12Class(k int) (svc string, args []core.Value) {
	s, t := k%e12Services, k/e12Services
	return fmt.Sprintf("svc%d", s), []core.Value{
		core.Num(e12PromptLen), core.Num(float64((t + 1) * e12TokenStep)),
	}
}

// e12Trace replays the deterministic Zipf trace against a daemon and
// returns the wall time, cold-request latencies, and per-class answers.
func e12Trace(cfg eisvc.Config) (wallMs float64, coldMs []float64, byClass map[int]energy.Dist, st *eisvc.StatsResponse, err error) {
	base, shutdown, err := e12Daemon(cfg)
	if err != nil {
		return 0, nil, nil, nil, err
	}
	defer shutdown()
	c := eisvc.NewClient(base)
	c.ID = "e12-trace"
	c.Deadline = time.Minute
	zipf := rand.NewZipf(rand.New(rand.NewSource(42)), e12ZipfS, 1, e12Classes-1)
	byClass = map[int]energy.Dist{}
	start := time.Now()
	for i := 0; i < e12Requests; i++ {
		k := int(zipf.Uint64())
		svc, args := e12Class(k)
		t0 := time.Now()
		d, resp, err := c.Eval(svc, "chat", args, core.Expected())
		if err != nil {
			return 0, nil, nil, nil, err
		}
		if !resp.Cached {
			coldMs = append(coldMs, float64(time.Since(t0))/float64(time.Millisecond))
		}
		if _, seen := byClass[k]; !seen {
			byClass[k] = d
		}
	}
	wallMs = float64(time.Since(start)) / float64(time.Millisecond)
	st, err = c.Stats()
	if err != nil {
		return 0, nil, nil, nil, err
	}
	return wallMs, coldMs, byClass, st, nil
}

func p50(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return s[len(s)/2]
}

func meanOf(ms []float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	t := 0.0
	for _, m := range ms {
		t += m
	}
	return t / float64(len(ms))
}

// E12LayerCache runs the trace with the layer cache off, then on, then the
// batch-deduplication phase.
func E12LayerCache() (*E12Result, error) {
	res := &E12Result{Requests: e12Requests, Classes: e12Classes}

	wallOff, coldOff, distsOff, _, err := e12Trace(eisvc.Config{NoLayerCache: true})
	if err != nil {
		return nil, err
	}
	wallOn, coldOn, distsOn, st, err := e12Trace(eisvc.Config{LayerCapacity: e12LayerCap})
	if err != nil {
		return nil, err
	}
	res.WallOffMs, res.WallOnMs = wallOff, wallOn
	if wallOn > 0 {
		res.Speedup = wallOff / wallOn
	}
	res.ColdOff, res.ColdOn = len(coldOff), len(coldOn)
	res.ColdP50OffMs, res.ColdP50OnMs = p50(coldOff), p50(coldOn)
	res.ColdMeanOffMs, res.ColdMeanOnMs = meanOf(coldOff), meanOf(coldOn)
	res.LayerHits, res.LayerMisses = st.LayerHits, st.LayerMisses
	res.LayerHitRate = st.LayerHitRate

	// Same deterministic trace ⇒ the same classes went cold; the answers
	// must agree bit for bit.
	res.BitIdentical = len(distsOff) == len(distsOn)
	for k, d := range distsOff {
		if !d.Equal(distsOn[k], 0) {
			res.BitIdentical = false
		}
	}
	if !res.BitIdentical {
		return nil, fmt.Errorf("experiments: e12: cached evaluation diverged from uncached")
	}

	// Batch phase against a fresh warm daemon: every class plus duplicates
	// in one /v1/evalbatch round trip.
	base, shutdown, err := e12Daemon(eisvc.Config{LayerCapacity: e12LayerCap})
	if err != nil {
		return nil, err
	}
	defer shutdown()
	c := eisvc.NewClient(base)
	c.ID = "e12-batch"
	c.Deadline = time.Minute
	var reqs []eisvc.EvalRequest
	for copyN := 0; copyN < 1+e12BatchDups; copyN++ {
		for k := 0; k < e12Classes; k++ {
			svc, args := e12Class(k)
			reqs = append(reqs, c.EvalRequestFor(svc, "chat", args, core.Expected()))
		}
	}
	items, err := c.EvalBatch(reqs)
	if err != nil {
		return nil, err
	}
	res.BatchItems = len(items)
	for i, it := range items {
		if it.Error != "" {
			return nil, fmt.Errorf("experiments: e12: batch item %d: %s", i, it.Error)
		}
		if it.Deduped {
			res.BatchDeduped++
		}
		if it.Cached {
			res.BatchCached++
		}
	}
	return res, nil
}
