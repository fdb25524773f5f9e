// Package core implements the energy-interface runtime: the paper's primary
// contribution ("The Case for Energy Clarity", HotOS'25, §2-§4).
//
// An energy Interface is a set of energy methods — little programs that take
// the same (abstracted) input as the implementation and return the energy
// the implementation would consume — plus declared energy-critical variables
// (ECVs): random variables capturing state that influences energy but is not
// part of the input (§3). Because of ECVs, evaluating a method yields a
// probability distribution over energy.
//
// Interfaces compose: a method body may call into the interfaces of the
// resources the module uses, bound by name (Fig. 2's resource-manager
// mediated composition). Swapping the bottom (hardware) layer is a rebind
// that leaves upper layers untouched.
package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the dynamic types of Value.
type Kind int

// Value kinds.
const (
	KindNil Kind = iota
	KindBool
	KindNum
	KindStr
	KindRecord
	KindList
)

func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindBool:
		return "bool"
	case KindNum:
		return "num"
	case KindStr:
		return "str"
	case KindRecord:
		return "record"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Value is the dynamic value model shared by the Go-native runtime and the
// EIL interpreter. Inputs to energy interfaces are abstractions of the
// implementation's inputs (§3: "an abstraction of the input in lieu of the
// full input"): numbers (sizes, counts), booleans, strings (symbolic
// configuration), records of those, and lists.
//
// The zero Value is nil.
type Value struct {
	kind Kind
	b    bool
	n    float64
	s    string
	rec  map[string]Value
	list []Value
}

// Nil returns the nil value.
func Nil() Value { return Value{} }

// Bool returns a boolean value.
func Bool(b bool) Value { return Value{kind: KindBool, b: b} }

// Num returns a numeric value. All numbers are float64; integer semantics
// hold exactly for counts below 2^53.
func Num(n float64) Value { return Value{kind: KindNum, n: n} }

// Int returns a numeric value from an int.
func Int(n int) Value { return Num(float64(n)) }

// Str returns a string value.
func Str(s string) Value { return Value{kind: KindStr, s: s} }

// Record returns a record value with the given fields. The map is copied.
func Record(fields map[string]Value) Value {
	rec := make(map[string]Value, len(fields))
	for k, v := range fields {
		rec[k] = v
	}
	return Value{kind: KindRecord, rec: rec}
}

// List returns a list value. The slice is copied.
func List(items ...Value) Value {
	l := make([]Value, len(items))
	copy(l, items)
	return Value{kind: KindList, list: l}
}

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether v is the nil value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// AsBool returns the boolean; ok is false if v is not a bool.
func (v Value) AsBool() (b, ok bool) { return v.b, v.kind == KindBool }

// AsNum returns the number; ok is false if v is not a num.
func (v Value) AsNum() (n float64, ok bool) { return v.n, v.kind == KindNum }

// AsStr returns the string; ok is false if v is not a str.
func (v Value) AsStr() (s string, ok bool) { return v.s, v.kind == KindStr }

// Field returns the named record field; ok is false if v is not a record
// or lacks the field.
func (v Value) Field(name string) (Value, bool) {
	if v.kind != KindRecord {
		return Value{}, false
	}
	f, ok := v.rec[name]
	return f, ok
}

// FieldNames returns the record's field names, sorted; nil for non-records.
func (v Value) FieldNames() []string {
	if v.kind != KindRecord {
		return nil
	}
	names := make([]string, 0, len(v.rec))
	for k := range v.rec {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Index returns the i-th list element; ok is false if v is not a list or i
// is out of range.
func (v Value) Index(i int) (Value, bool) {
	if v.kind != KindList || i < 0 || i >= len(v.list) {
		return Value{}, false
	}
	return v.list[i], true
}

// Len returns the list length, or 0 for non-lists.
func (v Value) Len() int {
	if v.kind != KindList {
		return 0
	}
	return len(v.list)
}

// Equal reports deep structural equality. Numbers compare with ==, so
// NaN != NaN as in Go.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindNil:
		return true
	case KindBool:
		return v.b == o.b
	case KindNum:
		return v.n == o.n
	case KindStr:
		return v.s == o.s
	case KindRecord:
		if len(v.rec) != len(o.rec) {
			return false
		}
		for k, f := range v.rec {
			g, ok := o.rec[k]
			if !ok || !f.Equal(g) {
				return false
			}
		}
		return true
	case KindList:
		if len(v.list) != len(o.list) {
			return false
		}
		for i := range v.list {
			if !v.list[i].Equal(o.list[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Key returns a canonical string key for use in maps (e.g. ECV assignment
// memoization). Distinct values produce distinct keys for the supported
// kinds, assuming strings contain no NUL bytes.
func (v Value) Key() string {
	var buf [64]byte
	return string(v.AppendKey(buf[:0]))
}

// AppendKey appends Key's bytes to dst and returns the extended slice, for
// callers composing a larger key in a buffer of their own.
func (v Value) AppendKey(dst []byte) []byte {
	switch v.kind {
	case KindNil:
		dst = append(dst, '_')
	case KindBool:
		if v.b {
			dst = append(dst, 'T')
		} else {
			dst = append(dst, 'F')
		}
	case KindNum:
		dst = strconv.AppendFloat(append(dst, 'N'), v.n, 'g', -1, 64)
	case KindStr:
		dst = strconv.AppendInt(append(dst, 'S'), int64(len(v.s)), 10)
		dst = append(append(dst, ':'), v.s...)
	case KindRecord:
		dst = append(dst, "R{"...)
		for _, k := range v.FieldNames() {
			dst = append(append(dst, k...), '=')
			dst = append(v.rec[k].AppendKey(dst), ';')
		}
		dst = append(dst, '}')
	case KindList:
		dst = append(dst, "L["...)
		for _, e := range v.list {
			dst = append(e.AppendKey(dst), ';')
		}
		dst = append(dst, ']')
	}
	return dst
}

// String renders the value for diagnostics.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindNum:
		if v.n == math.Trunc(v.n) && math.Abs(v.n) < 1e15 {
			return strconv.FormatFloat(v.n, 'f', 0, 64)
		}
		return strconv.FormatFloat(v.n, 'g', -1, 64)
	case KindStr:
		return strconv.Quote(v.s)
	case KindRecord:
		var b strings.Builder
		b.WriteByte('{')
		for i, k := range v.FieldNames() {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(k)
			b.WriteString(": ")
			b.WriteString(v.rec[k].String())
		}
		b.WriteByte('}')
		return b.String()
	case KindList:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.list {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	}
	return "?"
}
