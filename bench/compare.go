package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and the share of the base it may worsen.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so a
// spread computed here matches one computed by a driver.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// minSpreadRuns is how many runs a side needs before its quartiles mean
// anything; with fewer the verdict rests on the medians alone.
const minSpreadRuns = 4

// verdict judges b against base a for one metric on one workload.
//
//	ok          b's median is not worse than a's by more than bound
//	worse       it is, and the base's own spread cannot explain it
//	unresolved  the base's run-to-run spread (IQR / median) is wider than
//	            the bound, and the two sides' runs overlap
func verdict(a, b []float64, better string, bound float64) (string, float64) {
	// Flip "higher is better" so that smaller is better on both sides.
	dir := 1.0
	if better == "higher" {
		dir = -1
	}
	sa, sb := scaled(a, dir), scaled(b, dir)
	base := median(a)
	worsening := (median(sb) - median(sa)) / base
	if len(a) >= minSpreadRuns {
		if q1, q3 := quartiles(a); (q3-q1)/base > bound {
			switch {
			case sb[0] > sa[len(sa)-1] && worsening > bound:
				return "worse", worsening // every run of b is worse than every run of a
			case sb[len(sb)-1] < sa[0]:
				return "ok", worsening // every run of b is better than every run of a
			}
			return "unresolved", worsening
		}
	}
	if worsening > bound {
		return "worse", worsening
	}
	return "ok", worsening
}

// scaled returns xs times k, sorted ascending.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	sort.Float64s(out)
	return out
}

func loadResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// e2eRuns returns a workload's end-to-end records.
func (r *resultFile) e2eRuns(workload string) []record {
	var out []record
	for _, rec := range r.Runs {
		if rec.Workload == workload && !rec.Traced {
			out = append(out, rec)
		}
	}
	return out
}

func values(runs []record, name string) []float64 {
	out := make([]float64, len(runs))
	for i, rec := range runs {
		out[i] = rec.Metrics[name].Value
	}
	return out
}

// compare prints one row per workload and end-to-end metric and returns
// how many rows are worse.
func compare(w io.Writer, a, b *resultFile, bf *benchmarkFile) int {
	if a.Fingerprint.CPU != b.Fingerprint.CPU || a.Fingerprint.NumCPU != b.Fingerprint.NumCPU || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "warning: the two results come from different machines or run lengths (%s x%d %ds vs %s x%d %ds)\n",
			a.Fingerprint.CPU, a.Fingerprint.NumCPU, a.Seconds, b.Fingerprint.CPU, b.Fingerprint.NumCPU, b.Seconds)
	}
	worse := 0
	row := func(wl, name string, va, vb float64, unit, note, v string) {
		fmt.Fprintf(w, "%-12s %-20s %14.4f %14.4f %-6s %-24s %s\n", wl, name, va, vb, unit, note, v)
		if v == "worse" {
			worse++
		}
	}
	fmt.Fprintf(w, "%-12s %-20s %14s %14s %-6s %-24s %s\n", "workload", "metric", "a", "b", "unit", "b/a (base a)", "verdict")
	for _, wl := range workloads {
		ra, rb := a.e2eRuns(wl.name), b.e2eRuns(wl.name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-12s missing from one side\n", wl.name)
			continue
		}
		for _, def := range bf.EndToEnd {
			va, vb := values(ra, def.Name), values(rb, def.Name)
			v, _ := verdict(va, vb, def.Better, def.Bound)
			ma, mb := median(va), median(vb)
			row(wl.name, def.Name, ma, mb, def.Unit, fmt.Sprintf("%.4f of %.4f, n=%d/%d", mb/ma, ma, len(va), len(vb)), v)
		}
		for _, share := range []struct {
			name string
			of   func(record) float64
		}{
			{"failed_share", func(r record) float64 { return ratio(float64(r.Failed), float64(r.Attempted)) }},
			{"mismatch_share", func(r record) float64 { return ratio(float64(r.Mismatched), float64(r.Checked)) }},
		} {
			sa, sb := 0.0, 0.0
			for _, r := range ra {
				sa += share.of(r) / float64(len(ra))
			}
			for _, r := range rb {
				sb += share.of(r) / float64(len(rb))
			}
			v := "ok"
			if sb > 0 {
				v = "worse"
			}
			row(wl.name, share.name, sa, sb, "ratio", "bound 0", v)
		}
		// Evaluation is a pure function of the request, so on the same
		// stream two commits must give bit-identical answers.
		if ra[0].StreamDigest == rb[0].StreamDigest && ra[0].AnswerDigest != incompleteDigest && rb[0].AnswerDigest != incompleteDigest {
			v := "ok"
			if ra[0].AnswerDigest != rb[0].AnswerDigest {
				v = "worse"
			}
			fmt.Fprintf(w, "%-12s %-20s %14s %14s %-6s %-24s %s\n", wl.name, "answer_digest", ra[0].AnswerDigest[:12], rb[0].AnswerDigest[:12], "", "same stream", v)
			if v == "worse" {
				worse++
			}
		}
	}
	return worse
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "file holding the end-to-end metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-bounds BENCHMARK.json] a.json b.json")
		return 2
	}
	a, err := loadResult(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadResult(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	data, err := os.ReadFile(*bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", *bounds, err)
		return 2
	}
	if worse := compare(os.Stdout, a, b, &bf); worse > 0 {
		fmt.Printf("%d row(s) worse\n", worse)
		return 1
	}
	return 0
}
