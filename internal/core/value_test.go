package core

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Nil(), KindNil},
		{Bool(true), KindBool},
		{Num(3), KindNum},
		{Int(4), KindNum},
		{Str("x"), KindStr},
		{Record(map[string]Value{"a": Num(1)}), KindRecord},
		{List(Num(1), Num(2)), KindList},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestValueAccessors(t *testing.T) {
	if b, ok := Bool(true).AsBool(); !ok || !b {
		t.Error("AsBool failed")
	}
	if _, ok := Num(1).AsBool(); ok {
		t.Error("AsBool on num should fail")
	}
	if n, ok := Num(2.5).AsNum(); !ok || n != 2.5 {
		t.Error("AsNum failed")
	}
	if s, ok := Str("hi").AsStr(); !ok || s != "hi" {
		t.Error("AsStr failed")
	}
	r := Record(map[string]Value{"size": Num(100)})
	if f, ok := r.Field("size"); !ok || !f.Equal(Num(100)) {
		t.Error("Field failed")
	}
	if _, ok := r.Field("missing"); ok {
		t.Error("missing field should not be found")
	}
	if _, ok := Num(1).Field("x"); ok {
		t.Error("Field on non-record should fail")
	}
	l := List(Num(1), Num(2))
	if e, ok := l.Index(1); !ok || !e.Equal(Num(2)) {
		t.Error("Index failed")
	}
	if _, ok := l.Index(2); ok {
		t.Error("out-of-range Index should fail")
	}
	if _, ok := l.Index(-1); ok {
		t.Error("negative Index should fail")
	}
	if l.Len() != 2 {
		t.Errorf("Len = %d", l.Len())
	}
	if Num(1).Len() != 0 {
		t.Error("Len of non-list should be 0")
	}
}

func TestRecordIsCopied(t *testing.T) {
	m := map[string]Value{"a": Num(1)}
	r := Record(m)
	m["a"] = Num(2)
	if f, _ := r.Field("a"); !f.Equal(Num(1)) {
		t.Error("Record did not copy its input map")
	}
}

func TestListIsCopied(t *testing.T) {
	items := []Value{Num(1)}
	l := List(items...)
	items[0] = Num(9)
	if e, _ := l.Index(0); !e.Equal(Num(1)) {
		t.Error("List did not copy its input slice")
	}
}

func TestValueEqual(t *testing.T) {
	a := Record(map[string]Value{"x": Num(1), "l": List(Bool(true), Str("s"))})
	b := Record(map[string]Value{"x": Num(1), "l": List(Bool(true), Str("s"))})
	if !a.Equal(b) {
		t.Error("deep equal records reported unequal")
	}
	c := Record(map[string]Value{"x": Num(2), "l": List(Bool(true), Str("s"))})
	if a.Equal(c) {
		t.Error("different records reported equal")
	}
	if a.Equal(Num(1)) {
		t.Error("record equal to num")
	}
	if !Nil().Equal(Nil()) {
		t.Error("nil != nil")
	}
	if List(Num(1)).Equal(List(Num(1), Num(2))) {
		t.Error("different-length lists equal")
	}
}

func TestValueKeyDistinguishes(t *testing.T) {
	vals := []Value{
		Nil(), Bool(true), Bool(false), Num(0), Num(1), Str(""), Str("T"),
		List(), List(Num(1)), Record(nil),
		Record(map[string]Value{"a": Num(1)}),
		Record(map[string]Value{"a": Num(1), "b": Num(2)}),
		List(Num(1), Num(2)), List(List(Num(1)), Num(2)),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("Key collision: %v and %v both %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestQuickKeyEqualConsistent(t *testing.T) {
	f := func(a, b float64, s1, s2 string) bool {
		v1 := Record(map[string]Value{"n": Num(a), "s": Str(s1)})
		v2 := Record(map[string]Value{"n": Num(b), "s": Str(s2)})
		return (v1.Key() == v2.Key()) == v1.Equal(v2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueString(t *testing.T) {
	cases := []struct {
		v    Value
		want string
	}{
		{Nil(), "nil"},
		{Bool(true), "true"},
		{Num(3), "3"},
		{Num(2.5), "2.5"},
		{Str("a"), `"a"`},
		{List(Num(1), Num(2)), "[1, 2]"},
		{Record(map[string]Value{"b": Num(2), "a": Num(1)}), "{a: 1, b: 2}"},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%v) = %q, want %q", c.v.Kind(), got, c.want)
		}
	}
}

func TestFieldNames(t *testing.T) {
	r := Record(map[string]Value{"z": Num(1), "a": Num(2)})
	names := r.FieldNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "z" {
		t.Errorf("FieldNames = %v", names)
	}
	if Num(1).FieldNames() != nil {
		t.Error("FieldNames on non-record should be nil")
	}
}

// referenceWriteKey is Value.writeKey as it stood before AppendKey replaced
// it, verbatim. Memo keys are built from these bytes, peers exchange them
// and snapshots persist them, so AppendKey must reproduce them exactly.
func referenceWriteKey(v Value, b *strings.Builder) {
	switch v.kind {
	case KindNil:
		b.WriteString("_")
	case KindBool:
		if v.b {
			b.WriteString("T")
		} else {
			b.WriteString("F")
		}
	case KindNum:
		b.WriteString("N")
		b.WriteString(strconv.FormatFloat(v.n, 'g', -1, 64))
	case KindStr:
		b.WriteString("S")
		b.WriteString(strconv.Itoa(len(v.s)))
		b.WriteString(":")
		b.WriteString(v.s)
	case KindRecord:
		b.WriteString("R{")
		for _, k := range v.FieldNames() {
			b.WriteString(k)
			b.WriteString("=")
			f := v.rec[k]
			referenceWriteKey(f, b)
			b.WriteString(";")
		}
		b.WriteString("}")
	case KindList:
		b.WriteString("L[")
		for _, e := range v.list {
			referenceWriteKey(e, b)
			b.WriteString(";")
		}
		b.WriteString("]")
	}
}

// randValue draws a value of every kind, nested up to depth, including
// the floats whose formatting is easiest to get wrong.
func randValue(r *rand.Rand, depth int) Value {
	kinds := 6
	if depth <= 0 {
		kinds = 4
	}
	switch r.Intn(kinds) {
	case 0:
		return Nil()
	case 1:
		return Bool(r.Intn(2) == 0)
	case 2:
		odd := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 1e21, 1e-7, 5e-324, math.MaxFloat64, 307200}
		if r.Intn(2) == 0 {
			return Num(odd[r.Intn(len(odd))])
		}
		return Num(math.Float64frombits(r.Uint64()))
	case 3:
		b := make([]byte, r.Intn(80))
		r.Read(b)
		return Str(string(b))
	case 4:
		items := make([]Value, r.Intn(4))
		for i := range items {
			items[i] = randValue(r, depth-1)
		}
		return List(items...)
	default:
		rec := map[string]Value{}
		for i := r.Intn(4); i > 0; i-- {
			rec["f"+strconv.Itoa(r.Intn(100))] = randValue(r, depth-1)
		}
		return Record(rec)
	}
}

func TestAppendKeyMatchesReference(t *testing.T) {
	check := func(v Value) bool {
		var b strings.Builder
		referenceWriteKey(v, &b)
		want := b.String()
		// Appending must extend, never rewrite, what the buffer holds.
		return v.Key() == want && string(v.AppendKey([]byte("pre|"))) == "pre|"+want
	}
	for _, v := range []Value{
		Nil(), Bool(true), Bool(false), Num(0), Num(-1.5), Num(1e300), Str(""), Str(strings.Repeat("x", 200)),
		List(), Record(nil), List(List(Num(1)), Record(map[string]Value{"b": Str("S1:"), "a": List()})),
	} {
		if !check(v) {
			t.Errorf("Key of %v differs from the reference", v)
		}
	}
	if err := quick.Check(func(seed int64) bool { return check(randValue(rand.New(rand.NewSource(seed)), 3)) }, nil); err != nil {
		t.Error(err)
	}
}
