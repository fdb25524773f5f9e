package eisvc

import (
	"encoding/json"
	"fmt"
	"sort"

	"energyclarity/internal/core"
	"energyclarity/internal/counters"
	"energyclarity/internal/drift"
	"energyclarity/internal/energy"
)

// The JSON wire protocol. Every request and response body is one of these
// types; errors are ErrorResponse with a non-2xx status.

// RegisterRequest registers every interface declared in an EIL source file.
// 'uses' clauses resolve against interfaces already in the registry (and
// against other interfaces in the same file), so stacks can be uploaded
// layer by layer, bottom first.
type RegisterRequest struct {
	Source string `json:"source"`
}

// RegisterResponse lists the interfaces the source declared, with their
// assigned registry versions.
type RegisterResponse struct {
	Registered []InterfaceInfo `json:"registered"`
}

// InterfaceInfo is the listing entry for one registered interface.
type InterfaceInfo struct {
	Name     string   `json:"name"`
	Version  uint64   `json:"version"`
	Doc      string   `json:"doc,omitempty"`
	Methods  []string `json:"methods"`
	ECVs     []string `json:"ecvs,omitempty"`     // qualified names, transitively
	Bindings []string `json:"bindings,omitempty"` // local binding names
	Native   bool     `json:"native,omitempty"`   // built in Go, no EIL source
}

// SourceResponse returns a registered interface's EIL source.
type SourceResponse struct {
	Name   string `json:"name"`
	Source string `json:"source"`
}

// RebindRequest swaps the interface bound at a dot-separated path inside a
// registered interface for another registered interface — Fig. 2's "only
// some of the energy interfaces in the bottom layer need to be replaced".
type RebindRequest struct {
	Interface string `json:"interface"`
	Path      string `json:"path"`
	Target    string `json:"target"`
}

// RebindResponse carries the rebound interface's new version.
type RebindResponse struct {
	Interface string `json:"interface"`
	Version   uint64 `json:"version"`
}

// EvalRequest asks the daemon to evaluate one energy method. Mode takes
// the spellings core.Mode.String emits ("expected", "worst-case",
// "best-case", "fixed", "monte-carlo"). Args and Fixed hold core.Values —
// the form the engine evaluates — from the moment a request is decoded or
// built; in JSON text they read as the plain JSON data model: numbers,
// booleans, strings, objects (records), and arrays (lists).
type EvalRequest struct {
	Interface   string `json:"interface"`
	Method      string `json:"method"`
	Args        Args   `json:"args,omitempty"`
	Mode        string `json:"mode"`
	Samples     int    `json:"samples,omitempty"`
	Seed        int64  `json:"seed,omitempty"`
	EnumLimit   int    `json:"enum_limit,omitempty"`
	Parallelism int    `json:"parallelism,omitempty"`
	Fixed       Fixed  `json:"fixed,omitempty"`
	// DeadlineMs bounds how long the request may wait for a worker slot
	// before the daemon sheds it with 503; <= 0 uses the server default.
	DeadlineMs int `json:"deadline_ms,omitempty"`
}

// WireDist is a distribution on the wire: the exact (support, probs)
// vectors plus derived summary statistics. Support and Probs round-trip
// through energy.FromSorted bit-for-bit.
type WireDist struct {
	Support []float64 `json:"support"`
	Probs   []float64 `json:"probs"`
	Mean    float64   `json:"mean"`
	Std     float64   `json:"std"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	P99     float64   `json:"p99"`

	// tag is DistTag's, set where one is made to be checked against held
	// prefixes: in a memo entry's form and in a client's held answer.
	tag uint64
}

// ToWire converts a distribution for transport. The result is the
// caller's own: its vectors are copies. The daemon does not answer through
// here — a memo entry holds the wire form its hits are sent in (memoEntry).
func ToWire(d energy.Dist) WireDist {
	return WireDist{
		Support: d.Support(),
		Probs:   d.Probs(),
		Mean:    d.Mean(),
		Std:     d.Std(),
		Min:     d.Min(),
		Max:     d.Max(),
		P99:     d.Quantile(0.99),
	}
}

// Dist reconstructs the exact distribution, checked as energy.FromSorted
// checks it. The Dist shares w's vectors rather than copying them: both
// are read-only from here on (a client's decoded answer is its own, so
// nothing else writes to them).
func (w WireDist) Dist() (energy.Dist, error) {
	return energy.AdoptSorted(w.Support, w.Probs)
}

// EvalResponse is the daemon's answer to an EvalRequest.
type EvalResponse struct {
	Interface string   `json:"interface"`
	Version   uint64   `json:"version"`
	Method    string   `json:"method"`
	Mode      string   `json:"mode"`
	Dist      WireDist `json:"dist"`
	// Cached reports whether the answer came from the memo cache.
	Cached bool `json:"cached"`
	// Coalesced reports that the request joined an identical in-flight
	// evaluation instead of running its own (singleflight).
	Coalesced bool `json:"coalesced,omitempty"`
	// Peer reports that the answer was fetched from another fleet node's
	// warm cache instead of being evaluated here (Cached is also set).
	Peer bool `json:"peer,omitempty"`
	// Node is the serving node's ID; empty for a standalone daemon.
	Node string `json:"node,omitempty"`
}

// BatchEvalRequest evaluates several methods in one round trip
// (POST /v1/evalbatch). Items that canonicalize to the same evaluation are
// deduplicated server-side; the distinct residuals evaluate concurrently
// under the daemon's normal admission discipline.
type BatchEvalRequest struct {
	Requests []EvalRequest `json:"requests"`
	// refs is set when the frame carried refs: the item each repeats, or its own index.
	refs []int
	// held is set when the frame carried held prefixes: the tag each named, or 0.
	held  []uint64
	holds *batchHolds // a client's, which finds the answers it holds as it encodes
}

// BatchEvalItem is the per-item answer in a batch. Exactly one of Dist or
// Error is set; Status carries the HTTP status the item would have
// received as a single /v1/eval.
type BatchEvalItem struct {
	Interface string    `json:"interface"`
	Version   uint64    `json:"version,omitempty"`
	Method    string    `json:"method"`
	Mode      string    `json:"mode,omitempty"`
	Status    int       `json:"status"`
	Dist      *WireDist `json:"dist,omitempty"`
	Error     string    `json:"error,omitempty"`
	// Cached: served from the memo. Coalesced: joined an in-flight
	// evaluation. Deduped: shared an identical item earlier in this batch.
	// Peer: fetched from another fleet node's warm cache.
	Cached    bool `json:"cached,omitempty"`
	Coalesced bool `json:"coalesced,omitempty"`
	Deduped   bool `json:"deduped,omitempty"`
	Peer      bool `json:"peer,omitempty"`
	held      bool // answered as held (binary only), without the distribution
}

// BatchEvalResponse answers a BatchEvalRequest; Results[i] corresponds to
// Requests[i].
type BatchEvalResponse struct {
	Results []BatchEvalItem `json:"results"`
	// refs, when set, has the frame carry Results[i] as a ref to Results[refs[i]] ≠ i;
	// decoded, it is set when an item came back held (see batchResponse).
	refs []int
}

// LatencyStats summarizes request latencies (memo hits included).
type LatencyStats struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// LedgerEntry aggregates the energy a client (or an interface) had
// evaluated on its behalf: sums over the returned distributions' mean,
// p99, and worst-case joules.
type LedgerEntry struct {
	Requests uint64  `json:"requests"`
	MemoHits uint64  `json:"memo_hits"`
	MeanJ    float64 `json:"mean_j"`
	P99J     float64 `json:"p99_j"`
	WorstJ   float64 `json:"worst_j"`
}

// CacheLookupRequest is a fleet peer's memo probe (POST /v1/cachelookup):
// a list of exact canonical memo keys, as produced by this package's key
// canonicalization — every key a batch missed locally rides one request;
// a single eval's miss is a list of one. Because keys embed the interface
// version, a probe can only hit an answer for the identical tree —
// replicated registries keep versions aligned, which is what makes the
// key a cross-node identity. At most maxBatch (1024) keys, none empty.
// Summary asks for the answering node's memo summary as well.
type CacheLookupRequest struct {
	Keys    []string `json:"keys"`
	Summary bool     `json:"summary,omitempty"`
}

// CacheLookupResult answers one probed key. Dist is set iff Found.
type CacheLookupResult struct {
	Found bool      `json:"found"`
	Dist  *WireDist `json:"dist,omitempty"`
}

// CacheLookupResponse answers a memo probe: Results[i] is Keys[i]'s.
// Summary, if asked for, is the answering memo's summary (see Fingerprint;
// empty for an empty memo), nil if it would push the frame past MaxBodyBytes.
type CacheLookupResponse struct {
	Results []CacheLookupResult `json:"results"`
	Node    string              `json:"node,omitempty"` // answering node's ID
	Summary []uint32            `json:"summary"`        // null when absent, [] when empty
}

// StatsResponse is the /v1/stats payload: the node's own counters, then
// readings of its parts. Fold says how a fleet aggregate combines them.
type StatsResponse struct {
	// NodeID names this daemon in a fleet ("" standalone).
	NodeID string `json:"node_id,omitempty"`

	Interfaces int `json:"interfaces"`

	nodeCounters

	MemoHits      uint64  `json:"memo_hits"`
	MemoMisses    uint64  `json:"memo_misses"`
	MemoEvictions uint64  `json:"memo_evictions"`
	MemoLen       int     `json:"memo_len"`
	MemoHitRate   float64 `json:"memo_hit_rate"`

	// Compositional layer cache (per-sub-interface results shared across
	// evaluations; see core.LayerCache).
	LayerEnabled       bool    `json:"layer_enabled"`
	LayerHits          uint64  `json:"layer_hits"`
	LayerMisses        uint64  `json:"layer_misses"`
	LayerEvictions     uint64  `json:"layer_evictions"`
	LayerLen           int     `json:"layer_len"`
	LayerInvalidations uint64  `json:"layer_invalidations"`
	LayerHitRate       float64 `json:"layer_hit_rate"`

	// Optimizing EIL compiler (internal/opt): core.ReadProgramStats. All
	// four describe a process, not a node — nodes sharing a process each
	// report the process's count — so none of them is folded into a fleet
	// aggregate; read them per node.
	core.ProgramStats

	ShedQueueFull uint64 `json:"shed_queue_full"` // rejected with 429
	ShedDeadline  uint64 `json:"shed_deadline"`   // rejected with 503
	QueueDepth    int    `json:"queue_depth"`
	PeakQueue     int    `json:"peak_queue"`
	Workers       int    `json:"workers"`
	QueueLimit    int    `json:"queue_limit"`

	// Drain state: once draining, evaluations shed with 503.
	Draining bool `json:"draining"`
	InFlight int  `json:"in_flight"`

	Latency LatencyStats `json:"latency"`

	Clients    map[string]LedgerEntry `json:"clients"`
	ByIface    map[string]LedgerEntry `json:"by_interface"`
	AttribJ    float64                `json:"attributed_mean_j"` // sum over clients, in client-id order
	AttribP99J float64                `json:"attributed_p99_j"`

	// latWeightedMs is Fold's running Σ mean·count behind the aggregate's
	// count-weighted Latency.MeanMs; it never travels.
	latWeightedMs float64
}

// nodeCounters are the counters a Server keeps (a counters set).
type nodeCounters struct {
	EvalRequests uint64 `json:"eval_requests"`
	Evaluations  uint64 `json:"evaluations"` // actual Interface.Eval runs

	// Coalesced counts requests that joined an identical in-flight
	// evaluation; BatchRequests/BatchItems count /v1/evalbatch traffic.
	Coalesced     uint64 `json:"coalesced"`
	BatchRequests uint64 `json:"batch_requests"`
	BatchItems    uint64 `json:"batch_items"`

	// Peer cache forwarding: lookups this node issued to the fleet on memo
	// misses (hits/misses), and /v1/cachelookup probes it answered for
	// other nodes (served, of which served_hits found a warm entry);
	// skipped misses went to no peer, as no reachable peer's summary
	// could hold them. All count keys, not requests: a probe carries many.
	PeerHits       uint64 `json:"peer_hits,omitempty"`
	PeerMisses     uint64 `json:"peer_misses,omitempty"`
	PeerSkipped    uint64 `json:"peer_skipped,omitempty"`
	PeerServed     uint64 `json:"peer_served,omitempty"`
	PeerServedHits uint64 `json:"peer_served_hits,omitempty"`

	// Resilience: evaluations shed while draining, plus fleet retry/hedge
	// behavior as reported by clients through the X-Eisvc-Attempt /
	// X-Eisvc-Hedge headers.
	ShedDraining    uint64 `json:"shed_draining"` // rejected with 503 while draining
	RetriedRequests uint64 `json:"retried_requests"`
	RetryAttempts   uint64 `json:"retry_attempts"` // extra attempts beyond the first
	HedgedRequests  uint64 `json:"hedged_requests"`
}

// Fold adds one node's stats into the fleet aggregate a: every field is
// summed but for these. Interfaces, peak_queue and the latency max_ms,
// p50_ms and p99_ms take the max over nodes (for the percentiles an upper
// bound, not a percentile of the union); layer_enabled is or-ed; latency
// mean_ms is weighted by count; the ledgers merge row by row; the hit
// rates are derived. node_id, draining and the four compiler counters
// describe one node or process: they stay zero (read them per node).
func (a *StatsResponse) Fold(st *StatsResponse) {
	counters.Add(&a.nodeCounters, &st.nodeCounters)
	a.Interfaces = max(a.Interfaces, st.Interfaces)
	a.MemoHits += st.MemoHits
	a.MemoMisses += st.MemoMisses
	a.MemoEvictions += st.MemoEvictions
	a.MemoLen += st.MemoLen
	a.LayerEnabled = a.LayerEnabled || st.LayerEnabled
	a.LayerHits += st.LayerHits
	a.LayerMisses += st.LayerMisses
	a.LayerEvictions += st.LayerEvictions
	a.LayerLen += st.LayerLen
	a.LayerInvalidations += st.LayerInvalidations
	a.ShedQueueFull += st.ShedQueueFull
	a.ShedDeadline += st.ShedDeadline
	a.QueueDepth += st.QueueDepth
	a.PeakQueue = max(a.PeakQueue, st.PeakQueue)
	a.Workers += st.Workers
	a.QueueLimit += st.QueueLimit
	a.InFlight += st.InFlight

	lat, l := &a.Latency, st.Latency
	a.latWeightedMs += l.MeanMs * float64(l.Count)
	lat.Count += l.Count
	if lat.Count > 0 {
		lat.MeanMs = a.latWeightedMs / float64(lat.Count)
	}
	lat.P50Ms, lat.P99Ms, lat.MaxMs = max(lat.P50Ms, l.P50Ms), max(lat.P99Ms, l.P99Ms), max(lat.MaxMs, l.MaxMs)

	a.Clients = mergeLedger(a.Clients, st.Clients)
	a.ByIface = mergeLedger(a.ByIface, st.ByIface)
	a.AttribJ += st.AttribJ
	a.AttribP99J += st.AttribP99J
	a.deriveHitRates()
}

// mergeLedger adds src's rows into dst's under the same keys and returns
// dst, made if nil: an aggregate never shares a node's map.
func mergeLedger(dst, src map[string]LedgerEntry) map[string]LedgerEntry {
	if dst == nil {
		dst = make(map[string]LedgerEntry, len(src))
	}
	for k, e := range src {
		row := dst[k]
		row.Requests += e.Requests
		row.MemoHits += e.MemoHits
		row.MeanJ += e.MeanJ
		row.P99J += e.P99J
		row.WorstJ += e.WorstJ
		dst[k] = row
	}
	return dst
}

// deriveHitRates recomputes the hit-rate fields from the hit and miss
// counters, for one node's report and for the folded aggregate alike.
func (a *StatsResponse) deriveHitRates() {
	if total := a.MemoHits + a.MemoMisses; total > 0 {
		a.MemoHitRate = float64(a.MemoHits) / float64(total)
	}
	if total := a.LayerHits + a.LayerMisses; total > 0 {
		a.LayerHitRate = float64(a.LayerHits) / float64(total)
	}
}

// HealthzResponse is the GET /v1/healthz payload: the typed readiness
// probe. Ready means the daemon is admitting evaluation work; a draining
// daemon answers 200 with Ready false (the process is alive, the traffic
// should go elsewhere). Recalibrating reports an in-progress background
// recalibration; Generation is the number of calibration generations
// installed so far (0 when drift monitoring is off or nothing is seeded).
type HealthzResponse struct {
	Ready         bool `json:"ready"`
	Draining      bool `json:"draining"`
	DriftEnabled  bool `json:"drift_enabled"`
	Recalibrating bool `json:"recalibrating"`
	Interfaces    int  `json:"interfaces"`
	Generation    int  `json:"generation,omitempty"`
}

// DriftReport is the GET /v1/drift payload: the controller's own status
// (monitor state, per-class residuals, detection counts) and generation
// registry, plus the daemon loop's counters.
type DriftReport struct {
	drift.ControllerStatus
	Generations []drift.Generation `json:"generations,omitempty"`
	driftCounters
}

// driftCounters are the drift loop's counters (a counters set).
type driftCounters struct {
	Steps          uint64 `json:"steps"`          // DriftStep invocations
	StepErrors     uint64 `json:"step_errors"`    // probe/recal failures (loop survived)
	Recalibrations uint64 `json:"recalibrations"` // completed by the loop
}

// ErrorResponse is the body of every non-2xx answer.
type ErrorResponse struct {
	Error string `json:"error"`
}

// --- Value <-> JSON conversion ---

// Args is an evaluation's argument vector. Its JSON methods are the only
// place (with Fixed's) where the plain JSON data model meets core.Value:
// JSON is an edge translation, not a form requests are held in.
type Args []core.Value

// Fixed pins ECVs, by qualified name, to values (EvalOptions.Fixed).
type Fixed map[string]core.Value

// MarshalJSON writes the arguments as a JSON array.
func (a Args) MarshalJSON() ([]byte, error) {
	arr := make([]any, len(a))
	for i, v := range a {
		arr[i] = valueToJSON(v)
	}
	return json.Marshal(arr)
}

// UnmarshalJSON reads a JSON array of arguments.
func (a *Args) UnmarshalJSON(data []byte) error {
	var raw []any
	err := json.Unmarshal(data, &raw)
	*a = nil
	if len(raw) > 0 {
		*a = make(Args, len(raw))
	}
	for i := 0; err == nil && i < len(raw); i++ {
		(*a)[i], err = valueFromJSON(raw[i], 0)
	}
	return err
}

// MarshalJSON writes the pinned ECVs as a JSON object.
func (f Fixed) MarshalJSON() ([]byte, error) {
	obj := make(map[string]any, len(f))
	for k, v := range f {
		obj[k] = valueToJSON(v)
	}
	return json.Marshal(obj)
}

// UnmarshalJSON reads a JSON object of pinned ECVs.
func (f *Fixed) UnmarshalJSON(data []byte) error {
	var raw map[string]any
	err := json.Unmarshal(data, &raw)
	*f = nil
	if len(raw) > 0 {
		*f = make(Fixed, len(raw))
	}
	for k, r := range raw {
		if (*f)[k], err = valueFromJSON(r, 0); err != nil {
			break
		}
	}
	return err
}

// valueToJSON maps a core.Value onto the plain JSON data model: records
// become objects, lists become arrays.
func valueToJSON(v core.Value) any {
	switch v.Kind() {
	case core.KindBool:
		b, _ := v.AsBool()
		return b
	case core.KindNum:
		n, _ := v.AsNum()
		return n
	case core.KindStr:
		s, _ := v.AsStr()
		return s
	case core.KindRecord:
		obj := map[string]any{}
		for _, name := range v.FieldNames() {
			f, _ := v.Field(name)
			obj[name] = valueToJSON(f)
		}
		return obj
	case core.KindList:
		arr := make([]any, v.Len())
		for i := range arr {
			e, _ := v.Index(i)
			arr[i] = valueToJSON(e)
		}
		return arr
	}
	return nil
}

// valueFromJSON maps a value encoding/json decoded into an any onto a
// core.Value; the decoder produces nothing outside the cases below. Like
// the binary codec (value), it refuses nesting past maxValueDepth.
func valueFromJSON(r any, depth int) (v core.Value, err error) {
	if depth > maxValueDepth {
		return v, fmt.Errorf("eisvc: value nesting exceeds %d", maxValueDepth)
	}
	switch x := r.(type) {
	case bool:
		v = core.Bool(x)
	case float64:
		v = core.Num(x)
	case string:
		v = core.Str(x)
	case []any:
		items := make([]core.Value, len(x))
		for i := 0; err == nil && i < len(x); i++ {
			items[i], err = valueFromJSON(x[i], depth+1)
		}
		v = core.List(items...)
	case map[string]any:
		fields := make(map[string]core.Value, len(x))
		for k, e := range x {
			if fields[k], err = valueFromJSON(e, depth+1); err != nil {
				break
			}
		}
		v = core.Record(fields)
	}
	return v, err
}

// infoFor builds the listing entry for a bound interface.
func infoFor(name string, version uint64, iface *core.Interface, native bool) InterfaceInfo {
	info := InterfaceInfo{
		Name:     name,
		Version:  version,
		Doc:      iface.Doc(),
		Methods:  iface.Methods(),
		Bindings: iface.Bindings(),
		Native:   native,
	}
	for _, q := range iface.TransitiveECVs() {
		info.ECVs = append(info.ECVs, q.QualifiedName())
	}
	sort.Strings(info.ECVs)
	return info
}
