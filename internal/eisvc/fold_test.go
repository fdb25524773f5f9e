package eisvc

import (
	"reflect"
	"testing"
)

// foldKinds says which Go kinds each fold rule knows how to combine.
var foldKinds = map[string][]reflect.Kind{
	"sum":     {reflect.Int, reflect.Uint64, reflect.Float64},
	"max":     {reflect.Int, reflect.Uint64, reflect.Float64},
	"or":      {reflect.Bool},
	"fields":  {reflect.Struct},
	"perkey":  {reflect.Map},
	"derived": {reflect.Float64},
	"node":    nil, // any kind: the aggregate leaves it alone
}

// walkFoldRules visits every exported field reachable from typ through
// "fields" and "perkey" rules, failing the test for a field that has no
// rule or a rule that cannot combine its kind — so forgetting the tag on
// a new StatsResponse field is a test failure, not a silent zero in the
// fleet aggregate.
func walkFoldRules(t *testing.T, typ reflect.Type, visit func(path, rule string, f reflect.StructField)) {
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if !f.IsExported() {
			continue
		}
		path := typ.Name() + "." + f.Name
		rule := f.Tag.Get("fold")
		kinds, known := foldKinds[rule]
		if !known {
			t.Errorf("%s: no fold rule (tag %q); pick one of sum/max/or/fields/perkey/derived/node", path, rule)
			continue
		}
		fits := kinds == nil
		for _, k := range kinds {
			fits = fits || f.Type.Kind() == k
		}
		if !fits {
			t.Errorf("%s: rule %q cannot fold a %s", path, rule, f.Type.Kind())
			continue
		}
		visit(path, rule, f)
		switch rule {
		case "fields":
			walkFoldRules(t, f.Type, visit)
		case "perkey":
			walkFoldRules(t, f.Type.Elem(), visit)
		}
	}
}

func TestStatsFoldRulesCoverEveryField(t *testing.T) {
	seen := 0
	walkFoldRules(t, reflect.TypeOf(StatsResponse{}), func(string, string, reflect.StructField) { seen++ })
	if seen < 60 {
		t.Fatalf("walked only %d fields; the walk is broken", seen)
	}
}

// fillStats sets every numeric field to a distinct value scaled by k and
// every bool to on, reaching through nested structs.
func fillStats(v reflect.Value, k int, on bool) {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		n := (i + 1) * k
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(n))
		case reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Float64:
			f.SetFloat(float64(n) / 4)
		case reflect.Bool:
			f.SetBool(on)
		case reflect.String:
			f.SetString("x")
		case reflect.Struct:
			fillStats(f, k, on)
		}
	}
}

// TestStatsFold folds two synthetic node reports and checks every field
// against its declared rule, then the derived fields and the ledger merge
// by hand.
func TestStatsFold(t *testing.T) {
	var a, b StatsResponse
	fillStats(reflect.ValueOf(&a).Elem(), 3, false)
	fillStats(reflect.ValueOf(&b).Elem(), 2, true)
	a.Clients = map[string]LedgerEntry{"alice": {Requests: 2, MemoHits: 1, MeanJ: 0.5, P99J: 0.75, WorstJ: 1}}
	b.Clients = map[string]LedgerEntry{"alice": {Requests: 3, MeanJ: 0.25}, "bob": {Requests: 1, MeanJ: 2}}
	b.ByIface = map[string]LedgerEntry{"svc": {Requests: 4, MeanJ: 2.25}}

	var agg StatsResponse
	agg.Fold(&a)
	agg.Fold(&b)

	var check func(prefix string, got, x, y reflect.Value)
	check = func(prefix string, got, x, y reflect.Value) {
		for i := 0; i < got.NumField(); i++ {
			f := got.Type().Field(i)
			if !f.IsExported() {
				continue
			}
			g, xv, yv := got.Field(i), x.Field(i), y.Field(i)
			name := prefix + f.Name
			switch rule := f.Tag.Get("fold"); rule {
			case "sum", "max":
				var gf, xf, yf float64
				switch g.Kind() {
				case reflect.Int:
					gf, xf, yf = float64(g.Int()), float64(xv.Int()), float64(yv.Int())
				case reflect.Uint64:
					gf, xf, yf = float64(g.Uint()), float64(xv.Uint()), float64(yv.Uint())
				default:
					gf, xf, yf = g.Float(), xv.Float(), yv.Float()
				}
				want := xf + yf
				if rule == "max" {
					want = max(xf, yf)
				}
				if gf != want {
					t.Errorf("%s (%s): folded %v and %v to %v, want %v", name, rule, xf, yf, gf, want)
				}
			case "or":
				if g.Bool() != (xv.Bool() || yv.Bool()) {
					t.Errorf("%s (or): got %v", name, g.Bool())
				}
			case "node":
				if !g.IsZero() {
					t.Errorf("%s (node): the aggregate carries %v", name, g.Interface())
				}
			case "fields":
				check(name+".", g, xv, yv)
			}
		}
	}
	check("", reflect.ValueOf(agg), reflect.ValueOf(a), reflect.ValueOf(b))

	// The compiler's four counters describe a process, which several nodes
	// may share: summing specializations tripled it on an in-process
	// 3-node fleet. None of them enters the aggregate.
	if a.Specializations == 0 || b.Specializations == 0 {
		t.Fatal("fixture does not exercise specializations")
	}
	if agg.Specializations != 0 || agg.CompiledEvals != 0 || agg.CompiledPrograms != 0 || agg.CompileFallbacks != 0 {
		t.Errorf("aggregate carries process-wide compiler counters: %d specializations, %d compiled evals", agg.Specializations, agg.CompiledEvals)
	}

	if want := float64(agg.MemoHits) / float64(agg.MemoHits+agg.MemoMisses); agg.MemoHitRate != want {
		t.Errorf("MemoHitRate = %v, want %v", agg.MemoHitRate, want)
	}
	if want := float64(agg.LayerHits) / float64(agg.LayerHits+agg.LayerMisses); agg.LayerHitRate != want {
		t.Errorf("LayerHitRate = %v, want %v", agg.LayerHitRate, want)
	}
	wantMean := (a.Latency.MeanMs*float64(a.Latency.Count) + b.Latency.MeanMs*float64(b.Latency.Count)) /
		float64(a.Latency.Count+b.Latency.Count)
	if agg.Latency.MeanMs != wantMean {
		t.Errorf("Latency.MeanMs = %v, want the count-weighted %v", agg.Latency.MeanMs, wantMean)
	}
	wantClients := map[string]LedgerEntry{
		"alice": {Requests: 5, MemoHits: 1, MeanJ: 0.75, P99J: 0.75, WorstJ: 1},
		"bob":   {Requests: 1, MeanJ: 2},
	}
	if !reflect.DeepEqual(agg.Clients, wantClients) {
		t.Errorf("Clients = %+v, want %+v", agg.Clients, wantClients)
	}
	if !reflect.DeepEqual(agg.ByIface, b.ByIface) {
		t.Errorf("ByIface = %+v, want %+v", agg.ByIface, b.ByIface)
	}
	if len(a.Clients) != 1 || a.Clients["alice"].Requests != 2 {
		t.Errorf("Fold modified its argument's ledger: %+v", a.Clients)
	}
}
