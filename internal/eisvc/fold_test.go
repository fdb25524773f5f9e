package eisvc

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"energyclarity/internal/core"
)

// perNodeStats are the StatsResponse fields Fold leaves zero, as its doc
// lists them: facts about one node or process with no fleet-wide reading.
var perNodeStats = map[string]bool{
	"NodeID": true, "Draining": true,
	"CompiledPrograms": true, "CompileFallbacks": true, "CompiledEvals": true, "Specializations": true,
}

// fillStats sets every exported leaf reachable from v — through the
// embedded counters, the latency struct and one row of each ledger map —
// to a non-zero value.
func fillStats(v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		if !sf.IsExported() && !sf.Anonymous {
			continue
		}
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(i + 1))
		case reflect.Uint64:
			f.SetUint(uint64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i+1) / 4)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString("x")
		case reflect.Struct:
			fillStats(f)
		case reflect.Map:
			row := reflect.New(f.Type().Elem()).Elem()
			fillStats(row)
			f.Set(reflect.MakeMap(f.Type()))
			f.SetMapIndex(reflect.ValueOf("k"), row)
		}
	}
}

// checkFolded fails for every exported leaf of the folded aggregate v
// that is zero although it is not a per-node field, or non-zero although
// it is one.
func checkFolded(t *testing.T, prefix string, v reflect.Value) {
	for i := 0; i < v.NumField(); i++ {
		f, sf := v.Field(i), v.Type().Field(i)
		name := prefix + sf.Name
		switch {
		case sf.Anonymous:
			checkFolded(t, prefix, f)
		case !sf.IsExported():
		case f.Kind() == reflect.Struct:
			checkFolded(t, name+".", f)
		case f.Kind() == reflect.Map:
			if f.Len() != 1 {
				t.Errorf("%s: folded to %d rows, want the one row", name, f.Len())
				continue
			}
			checkFolded(t, name+"[k].", f.MapIndex(reflect.ValueOf("k")))
		case perNodeStats[name] && !f.IsZero():
			t.Errorf("%s is per node, but the aggregate carries %v", name, f.Interface())
		case !perNodeStats[name] && f.IsZero():
			t.Errorf("%s: Fold neither combines it nor lists it as per node", name)
		}
	}
}

// TestStatsFoldCombinesEveryField is the guard against a new StatsResponse
// field that Fold forgets: it would read zero in every fleet aggregate.
func TestStatsFoldCombinesEveryField(t *testing.T) {
	var st StatsResponse
	fillStats(reflect.ValueOf(&st).Elem())
	var agg StatsResponse
	agg.Fold(&st)
	agg.Fold(&st)
	checkFolded(t, "", reflect.ValueOf(agg))
}

// TestStatsFold folds two node reports and checks every field of the
// aggregate against a value worked out by hand.
func TestStatsFold(t *testing.T) {
	a := StatsResponse{
		NodeID: "node-1", Interfaces: 3,
		nodeCounters: nodeCounters{
			EvalRequests: 10, Evaluations: 4, Coalesced: 1, BatchRequests: 2, BatchItems: 20,
			PeerHits: 3, PeerMisses: 5, PeerSkipped: 7, PeerServed: 9, PeerServedHits: 2,
			ShedDraining: 1, RetriedRequests: 2, RetryAttempts: 3, HedgedRequests: 1,
		},
		MemoHits: 6, MemoMisses: 4, MemoEvictions: 1, MemoLen: 5, MemoHitRate: 0.6,
		LayerHits: 1, LayerMisses: 3, LayerEvictions: 2, LayerLen: 4, LayerInvalidations: 1, LayerHitRate: 0.25,
		ProgramStats:  core.ProgramStats{CompiledPrograms: 2, CompileFallbacks: 1, CompiledEvals: 30, Specializations: 2},
		ShedQueueFull: 1, ShedDeadline: 2, QueueDepth: 3, PeakQueue: 7, Workers: 2, QueueLimit: 64,
		Draining: true, InFlight: 1,
		Latency: LatencyStats{Count: 4, MeanMs: 2, P50Ms: 1.5, P99Ms: 9, MaxMs: 12},
		Clients: map[string]LedgerEntry{"alice": {Requests: 2, MemoHits: 1, MeanJ: 0.5, P99J: 0.75, WorstJ: 1}},
		ByIface: map[string]LedgerEntry{"svc": {Requests: 2, MemoHits: 1, MeanJ: 0.5, P99J: 0.75, WorstJ: 1}},
		AttribJ: 0.5, AttribP99J: 0.75,
	}
	b := StatsResponse{
		NodeID: "node-2", Interfaces: 2,
		nodeCounters: nodeCounters{
			EvalRequests: 5, Evaluations: 1, Coalesced: 2, BatchRequests: 1, BatchItems: 8,
			PeerHits: 1, PeerMisses: 1, PeerSkipped: 1, PeerServed: 4, PeerServedHits: 3,
			ShedDraining: 0, RetriedRequests: 1, RetryAttempts: 1, HedgedRequests: 2,
		},
		MemoHits: 2, MemoMisses: 8, MemoEvictions: 3, MemoLen: 6, MemoHitRate: 0.2,
		LayerEnabled: true, LayerHits: 3, LayerMisses: 1, LayerEvictions: 1, LayerLen: 2, LayerInvalidations: 2, LayerHitRate: 0.75,
		ProgramStats:  core.ProgramStats{CompiledPrograms: 2, CompileFallbacks: 1, CompiledEvals: 30, Specializations: 2},
		ShedQueueFull: 2, ShedDeadline: 1, QueueDepth: 1, PeakQueue: 4, Workers: 3, QueueLimit: 32,
		InFlight: 2,
		Latency:  LatencyStats{Count: 12, MeanMs: 1, P50Ms: 2.5, P99Ms: 6, MaxMs: 20},
		Clients:  map[string]LedgerEntry{"alice": {Requests: 3, MeanJ: 0.25}, "bob": {Requests: 1, MeanJ: 2}},
		ByIface:  map[string]LedgerEntry{"svc": {Requests: 4, MeanJ: 2.25}},
		AttribJ:  2.25,
	}

	var agg StatsResponse
	agg.Fold(&a)
	agg.Fold(&b)

	want := StatsResponse{
		// NodeID, Draining and the compiler's four counters stay zero: the
		// compiler's describe a process, which several nodes may share
		// (summing specializations tripled it on an in-process 3-node fleet).
		Interfaces: 3,
		nodeCounters: nodeCounters{
			EvalRequests: 15, Evaluations: 5, Coalesced: 3, BatchRequests: 3, BatchItems: 28,
			PeerHits: 4, PeerMisses: 6, PeerSkipped: 8, PeerServed: 13, PeerServedHits: 5,
			ShedDraining: 1, RetriedRequests: 3, RetryAttempts: 4, HedgedRequests: 3,
		},
		MemoHits: 8, MemoMisses: 12, MemoEvictions: 4, MemoLen: 11, MemoHitRate: 0.4,
		LayerEnabled: true, LayerHits: 4, LayerMisses: 4, LayerEvictions: 3, LayerLen: 6, LayerInvalidations: 3, LayerHitRate: 0.5,
		ShedQueueFull: 3, ShedDeadline: 3, QueueDepth: 4, PeakQueue: 7, Workers: 5, QueueLimit: 96,
		InFlight: 3,
		// mean_ms is weighted by count, (4·2 + 12·1) / 16; the percentiles
		// are the max over nodes.
		Latency: LatencyStats{Count: 16, MeanMs: 1.25, P50Ms: 2.5, P99Ms: 9, MaxMs: 20},
		Clients: map[string]LedgerEntry{
			"alice": {Requests: 5, MemoHits: 1, MeanJ: 0.75, P99J: 0.75, WorstJ: 1},
			"bob":   {Requests: 1, MeanJ: 2},
		},
		ByIface:       map[string]LedgerEntry{"svc": {Requests: 6, MemoHits: 1, MeanJ: 2.75, P99J: 0.75, WorstJ: 1}},
		AttribJ:       2.75,
		AttribP99J:    0.75,
		latWeightedMs: 20,
	}
	if !reflect.DeepEqual(agg, want) {
		got, _ := json.Marshal(agg)
		exp, _ := json.Marshal(want)
		t.Errorf("aggregate\n got %s\nwant %s", got, exp)
	}
	if len(a.Clients) != 1 || a.Clients["alice"].Requests != 2 {
		t.Errorf("Fold modified its argument's ledger: %+v", a.Clients)
	}
}

// TestAttributedTotalsAreStable reads an idle node's stats many times: the
// attributed totals must read the same bits every time, the sum of the
// client rows in client-id order, whatever order the ledger's map yields.
func TestAttributedTotalsAreStable(t *testing.T) {
	srv := NewServer(Config{})
	// Magnitudes far apart, so the order of the additions shows in the
	// low bits of the sum.
	rows := map[string][2]float64{
		"a": {1e16, 3}, "b": {1, 1e17}, "c": {3, 0.1}, "d": {5, 7},
		"e": {0.5, 1e-3}, "f": {0.25, 11}, "g": {7, 0.3}, "h": {1.5, 1e16},
	}
	for id, j := range rows {
		srv.ledger.record(id, "svc", j[0], j[1], j[1], false)
	}
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var wantMean, wantP99 float64
	for _, id := range ids {
		wantMean += rows[id][0]
		wantP99 += rows[id][1]
	}

	seen := map[[2]uint64]int{}
	for i := 0; i < 200; i++ {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
		var st StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		seen[[2]uint64{math.Float64bits(st.AttribJ), math.Float64bits(st.AttribP99J)}]++
	}
	want := [2]uint64{math.Float64bits(wantMean), math.Float64bits(wantP99)}
	if len(seen) != 1 || seen[want] != 200 {
		t.Errorf("200 reads of the same ledger gave %d bit patterns %v; want only %v (%v, %v)", len(seen), seen, want, wantMean, wantP99)
	}
}
