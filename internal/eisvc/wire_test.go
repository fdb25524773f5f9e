package eisvc

import (
	"encoding/json"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"energyclarity/internal/core"
)

func TestValueJSONRoundTrip(t *testing.T) {
	vals := []core.Value{
		core.Nil(),
		core.Bool(true),
		core.Num(3.141592653589793),
		core.Num(1e-21),
		core.Str("hello"),
		core.List(core.Num(1), core.Str("two"), core.Bool(false)),
		core.Record(map[string]core.Value{
			"pixels": core.Num(307200),
			"meta":   core.Record(map[string]core.Value{"fmt": core.Str("rgb")}),
			"tags":   core.List(core.Str("a"), core.Str("b")),
		}),
	}
	// Through the request's two JSON edges, as an argument and as a pinned ECV.
	for _, v := range vals {
		text, err := json.Marshal(EvalRequest{Args: Args{v}, Fixed: Fixed{"ecv": v}})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		var got EvalRequest
		if err := decodeStrictJSON(text, &got); err != nil {
			t.Fatalf("%v: %s: %v", v, text, err)
		}
		if len(got.Args) != 1 || !got.Args[0].Equal(v) || !got.Fixed["ecv"].Equal(v) {
			t.Errorf("round trip %v -> %s -> args %v, fixed %v", v, text, got.Args, got.Fixed)
		}
	}
	for _, bad := range []string{`{"args":{"a":1}}`, `{"args":3}`, `{"fixed":[1]}`, `{"fixed":"x"}`} {
		if err := decodeStrictJSON([]byte(bad), new(EvalRequest)); err == nil {
			t.Errorf("%s accepted", bad)
		}
	}
}

func TestMemoKeyCanonicalization(t *testing.T) {
	args := []core.Value{core.Record(map[string]core.Value{"n": core.Num(5)})}

	// Parallelism never splits the key.
	a := core.MonteCarlo(512, 3)
	b := core.MonteCarlo(512, 3)
	b.Parallelism = 8
	if memoKey("i", 1, "m", args, a) != memoKey("i", 1, "m", args, b) {
		t.Error("parallelism split the memo key")
	}

	// Defaults normalize: omitted and explicit default collide.
	c := core.Expected()
	d := core.Expected()
	d.Samples = core.DefaultSamples
	d.EnumLimit = core.DefaultEnumLimit
	if memoKey("i", 1, "m", args, c) != memoKey("i", 1, "m", args, d) {
		t.Error("explicit defaults split the memo key")
	}

	// Version always splits it.
	if memoKey("i", 1, "m", args, a) == memoKey("i", 2, "m", args, a) {
		t.Error("version did not split the memo key")
	}

	// Seed splits Monte Carlo keys but not fixed-mode keys.
	e := core.MonteCarlo(512, 4)
	if memoKey("i", 1, "m", args, a) == memoKey("i", 1, "m", args, e) {
		t.Error("seed did not split monte-carlo keys")
	}
	pin := map[string]core.Value{"x": core.Bool(true)}
	f1 := core.FixedAssignment(pin)
	f2 := core.FixedAssignment(pin)
	f1.Seed, f2.Seed = 1, 2
	f1.Samples, f2.Samples = 100, 200
	if memoKey("i", 1, "m", args, f1) != memoKey("i", 1, "m", args, f2) {
		t.Error("mode-irrelevant knobs split fixed-mode keys")
	}

	// Pinned-ECV order is canonical.
	g1 := core.Expected()
	g1.Fixed = map[string]core.Value{"a": core.Num(1), "b": core.Num(2)}
	g2 := core.Expected()
	g2.Fixed = map[string]core.Value{"b": core.Num(2), "a": core.Num(1)}
	if memoKey("i", 1, "m", args, g1) != memoKey("i", 1, "m", args, g2) {
		t.Error("fixed-map iteration order split the memo key")
	}

	// Different args split it.
	other := []core.Value{core.Record(map[string]core.Value{"n": core.Num(6)})}
	if memoKey("i", 1, "m", args, c) == memoKey("i", 1, "m", other, c) {
		t.Error("args did not split the memo key")
	}
}

// referenceMemoKey is memoKey as it stood before appendMemoKey replaced its
// strings.Builder, verbatim. Peers exchange memo keys over /v1/cachelookup
// and snapshots persist them, so a build that spelled them differently
// would miss on every probe from the other build and load no snapshot.
// (core's TestAppendKeyMatchesReference pins the Value.Key half.)
func referenceMemoKey(name string, version uint64, method string, args []core.Value, opts core.EvalOptions) string {
	samples := opts.Samples
	if samples <= 0 {
		samples = core.DefaultSamples
	}
	enumLimit := opts.EnumLimit
	if enumLimit <= 0 {
		enumLimit = core.DefaultEnumLimit
	}
	seed := opts.Seed
	switch opts.Mode {
	case core.ModeFixed:
		samples, enumLimit, seed = 0, 0, 0
	case core.ModeMonteCarlo:
		enumLimit = 0
	}

	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(version, 10))
	b.WriteByte('|')
	b.WriteString(method)
	b.WriteString("|m")
	b.WriteString(strconv.Itoa(int(opts.Mode)))
	b.WriteString("|s")
	b.WriteString(strconv.Itoa(samples))
	b.WriteString("|l")
	b.WriteString(strconv.Itoa(enumLimit))
	b.WriteString("|r")
	b.WriteString(strconv.FormatInt(seed, 10))
	b.WriteString("|A[")
	for _, a := range args {
		b.WriteString(a.Key())
		b.WriteByte(';')
	}
	b.WriteString("]|F{")
	if len(opts.Fixed) > 0 {
		names := make([]string, 0, len(opts.Fixed))
		for qn := range opts.Fixed {
			names = append(names, qn)
		}
		sort.Strings(names)
		for _, qn := range names {
			b.WriteString(qn)
			b.WriteByte('=')
			b.WriteString(opts.Fixed[qn].Key())
			b.WriteByte(';')
		}
	}
	b.WriteByte('}')
	return b.String()
}

func TestMemoKeyBytesUnchanged(t *testing.T) {
	modes := []core.Mode{core.ModeExpected, core.ModeWorstCase, core.ModeBestCase, core.ModeFixed, core.ModeMonteCarlo}
	check := func(name, method string, version uint64, nums []float64, strs []string, mode uint8, samples, enumLimit int, seed int64, pinned []string) bool {
		var args []core.Value
		rec := map[string]core.Value{}
		for i, n := range nums {
			args = append(args, core.Num(n))
			rec["n"+strconv.Itoa(i)] = core.Num(n)
		}
		for _, s := range strs {
			args = append(args, core.Str(s), core.List(core.Str(s), core.Bool(len(s)%2 == 0), core.Nil()))
		}
		args = append(args, core.Record(rec))
		opts := core.EvalOptions{Mode: modes[int(mode)%len(modes)], Samples: samples, EnumLimit: enumLimit, Seed: seed}
		for i, qn := range pinned {
			if opts.Fixed == nil {
				opts.Fixed = map[string]core.Value{}
			}
			opts.Fixed[qn] = args[i%len(args)]
		}
		want := referenceMemoKey(name, version, method, args, opts)
		// The appended form must extend what the buffer already holds: a
		// batch builds every item's key in one buffer.
		return memoKey(name, version, method, args, opts) == want &&
			string(appendMemoKey([]byte("pre"), name, version, method, args, opts)) == "pre"+want
	}
	long := strings.Repeat("stack", 60) // past memoKey's stack buffer
	for _, c := range []struct {
		name, method string
		nums         []float64
		strs, pinned []string
	}{
		{"i", "m", nil, nil, nil},
		{"ml_webservice", "handle", []float64{307200, 0.5, -2.5, 1e21}, []string{"rgb", ""}, []string{"request_hit", "local_cache_hit"}},
		{long, long, []float64{1}, []string{long}, []string{long}},
	} {
		for mode := range modes {
			if !check(c.name, c.method, 7, c.nums, c.strs, uint8(mode), 512, 0, 42, c.pinned) {
				t.Errorf("memo key of %s.%s (mode %d) differs from the reference", c.name[:1], c.method[:1], mode)
			}
		}
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
