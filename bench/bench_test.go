package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	for _, wl := range workloads {
		a, b, c := wl.gen(7).digest(4096), wl.gen(7).digest(4096), wl.gen(8).digest(4096)
		if a != b {
			t.Errorf("%s: same seed gave digests %x and %x", wl.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %x", wl.name, a)
		}
	}
}

func TestUniqueShapesNeverRepeat(t *testing.T) {
	for _, wl := range workloads {
		st := wl.gen(1)
		seen := map[string]bool{}
		// Two periods of the order table: a wrap must not produce a repeat.
		for g := uint64(0); g < 2*streamLen; g++ {
			c, class := st.at(g)
			if class >= 0 {
				continue
			}
			key := fmt.Sprint(c.iface, c.method, c.args[0].Key(), c.opts.Mode, c.opts.Seed)
			if seen[key] {
				t.Fatalf("%s: position %d repeats an earlier unique request", wl.name, g)
			}
			seen[key] = true
		}
	}
}

func TestSliceMedian(t *testing.T) {
	// Ten one-second slices; slice i holds durations i*100+1 .. i*100+100,
	// so its p50 is i*100+50 and its p90 i*100+90. One slice is poisoned
	// with a huge outlier run that a plain percentile would feel.
	var lat []latSample
	for i := int64(0); i < 10; i++ {
		for k := int64(1); k <= 100; k++ {
			d := i*100 + k
			if i == 3 {
				d = 1e9
			}
			lat = append(lat, latSample{at: i*int64(time.Second) + int64(time.Second)/2 + k, dur: d})
		}
	}
	// Per-slice p50s sorted: 50,150,250,450,550,650,...,950,1e9 -> (550+650)/2.
	if got := sliceMedian(lat, 10*time.Second, 0.5); got != 600 {
		t.Errorf("p50 slice median = %v, want 600", got)
	}
	if got := sliceMedian(lat, 10*time.Second, 0.9); got != 640 {
		t.Errorf("p90 slice median = %v, want 640", got)
	}
	if got := percentile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); got != 9 {
		t.Errorf("nearest-rank p90 of 1..10 = %d, want 9", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdictAtTheBounds(t *testing.T) {
	tight := []float64{100, 100, 101, 99, 100}
	noisy := []float64{80, 120, 90, 110, 100, 70, 130}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		better string
		bound  float64
		want   string
	}{
		{"exactly at the bound is ok", []float64{100}, []float64{110}, "lower", 0.10, "ok"},
		{"past the bound is worse", []float64{100}, []float64{110.5}, "lower", 0.10, "worse"},
		{"higher-is-better mirrors", []float64{100}, []float64{89}, "higher", 0.10, "worse"},
		{"higher-is-better gain", []float64{100}, []float64{150}, "higher", 0.10, "ok"},
		{"tight base, real loss", tight, []float64{115, 114, 116, 115}, "lower", 0.10, "worse"},
		{"noisy base, overlapping loss", noisy, []float64{115, 95, 125, 105}, "lower", 0.10, "unresolved"},
		{"noisy base, every run better", noisy, []float64{60, 65, 62, 61}, "lower", 0.10, "ok"},
		{"noisy base, every run worse", noisy, []float64{140, 150, 145, 160}, "lower", 0.10, "worse"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100, Request: 1},
		{ID: 2, Name: "transport", Start: 10, End: 90, Parent: 1, Request: 1},
		{ID: 3, Name: "node", Start: 30, End: 60, Parent: 2, Request: 1},
	}
	mean, self := selfTimes(spans)
	if mean["transport"] != 80 || self["request"] != 20 || self["transport"] != 50 || self["node"] != 30 {
		t.Errorf("mean %v self %v", mean, self)
	}
}

// TestBenchmarkFileAgrees keeps BENCHMARK.json and the program's own
// tables in step: same workloads, same metric names, units, directions.
func TestBenchmarkFileAgrees(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bf struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, file []entry, defs []metricDef) {
		if len(file) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(defs))
		}
		for i, e := range file {
			if d := defs[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the program", kind, i, e, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eDefs)
	check("per_layer", bf.PerLayer, layerDefs)
}

// TestShortPass pushes a few hundred requests through every workload and
// wants no failure, no mismatch and every end-to-end metric above zero.
func TestShortPass(t *testing.T) {
	for _, wl := range workloads {
		rec, err := runOne(context.Background(), runConfig{wl: wl, seed: 3, seconds: 0.3, outDir: t.TempDir(), setups: 1})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Mismatched != 0 || rec.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d mismatched=%d note=%q",
				wl.name, rec.Correct, rec.Attempted, rec.Failed, rec.Mismatched, rec.Note)
		}
		for _, n := range e2eNames {
			if rec.Metrics[n].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", wl.name, n, rec.Metrics[n].Value)
			}
		}
	}
}

// TestTracedPass checks that a traced run reports every per-layer metric
// and that the layers a workload touches come out non-zero.
func TestTracedPass(t *testing.T) {
	wl, _ := findWorkload("hot_zipf")
	rec, err := runOne(context.Background(), runConfig{wl: wl, seed: 3, seconds: 0.6, traced: true, outDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct || rec.Failed != 0 {
		t.Errorf("correct=%v failed=%d note=%q", rec.Correct, rec.Failed, rec.Note)
	}
	for _, n := range layerNames {
		if _, ok := rec.Metrics[n]; !ok {
			t.Errorf("per-layer metric %s missing", n)
		}
	}
	for _, n := range []string{"eisvc.client.encode_ns", "transport.tcp_ns", "fleet.router.serve_ns", "eisvc.server.serve_ns", "eisvc.memo.get_ns", "core.eval_ns", "opt.compile_ns", "eil.parse_ns"} {
		if rec.Metrics[n].Value <= 0 {
			t.Errorf("%s = %v, want > 0", n, rec.Metrics[n].Value)
		}
	}
	if rec.Metrics["eisvc.evaluations"].Value != 0 {
		t.Errorf("hot_zipf evaluated %v times in the traced window", rec.Metrics["eisvc.evaluations"].Value)
	}
}
