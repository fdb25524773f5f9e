package opt

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"energyclarity/internal/core"
)

// Instr is one flat instruction: an opcode plus three register/operand
// fields. Operands index the float (f), bool (b), or value (v) register
// bank, the instruction stream (jump targets), the free-ECV slice, or the
// program's name/message/aux pools, depending on the opcode.
type Instr struct {
	Op      uint8
	A, B, C int32
}

const (
	opNop      uint8 = iota
	opJmp            // pc = A
	opJmpIfNot       // if !b[B]: pc = A
	opMovF           // f[A] = f[B]
	opMovB           // b[A] = b[B]
	opMovV           // v[A] = v[B]
	opAddF           // f[A] = f[B] + f[C]
	opSubF
	opMulF
	opDivF // errors on zero divisor, like the interpreter
	opModF // math.Mod; errors on zero divisor
	opNegF // f[A] = -f[B]
	opNotB // b[A] = !b[B]
	opLtF  // b[A] = f[B] < f[C]
	opLeF
	opGtF
	opGeF
	opEqF // b[A] = f[B] == f[C] (Value.Equal on nums is float ==)
	opNeF
	opEqB
	opNeB
	opEqV // b[A] = v[B].Equal(v[C])
	opNeV
	opCeilRaw // f[A] = math.Ceil(f[B]); unchecked (loop prologue)
	opMinF    // builtins: result checked finite, like eil's num1/num2
	opMaxF
	opPowF
	opAbsF
	opCeilF
	opFloorF
	opSqrtF
	opLog2F
	opLenV     // f[A] = len(v[B]) for list/str; errors otherwise
	opFieldV   // v[A] = v[B].Field(names[C]); errors when absent
	opIndexV   // v[A] = v[B].Index(int(f[C])); errors out of range
	opNumV     // f[A] = v[B] as num; errors on other kinds
	opBoolV    // b[A] = v[B] as bool; errors on other kinds
	opBoxF     // v[A] = Num(f[B])
	opBoxB     // v[A] = Bool(b[B])
	opRecordV  // v[A] = record of C (nameIdx, vreg) pairs at aux[B:]
	opListV    // v[A] = list of C vregs at aux[B:]
	opLoadF    // f[A] = vals[B] as num; errors on kind mismatch
	opLoadB    // b[A] = vals[B] as bool; errors on kind mismatch
	opLoadV    // v[A] = vals[B]
	opFrameRet // frame return: error unless f[B] finite; f[A] = f[B]; pc = C
	opFail     // unconditional error msgs[A] (type errors on a taken path)
	opEnd      // return f[A]
)

var opNames = [...]string{
	opNop: "nop", opJmp: "jmp", opJmpIfNot: "jmpifnot",
	opMovF: "movf", opMovB: "movb", opMovV: "movv",
	opAddF: "addf", opSubF: "subf", opMulF: "mulf", opDivF: "divf", opModF: "modf",
	opNegF: "negf", opNotB: "notb",
	opLtF: "ltf", opLeF: "lef", opGtF: "gtf", opGeF: "gef",
	opEqF: "eqf", opNeF: "nef", opEqB: "eqb", opNeB: "neb", opEqV: "eqv", opNeV: "nev",
	opCeilRaw: "ceilraw",
	opMinF:    "minf", opMaxF: "maxf", opPowF: "powf",
	opAbsF: "absf", opCeilF: "ceilf", opFloorF: "floorf", opSqrtF: "sqrtf", opLog2F: "log2f",
	opLenV: "lenv", opFieldV: "fieldv", opIndexV: "indexv",
	opNumV: "numv", opBoolV: "boolv", opBoxF: "boxf", opBoxB: "boxb",
	opRecordV: "recordv", opListV: "listv",
	opLoadF: "loadf", opLoadB: "loadb", opLoadV: "loadv",
	opFrameRet: "framert", opFail: "fail", opEnd: "end",
}

// progCode is one emitted program: the instruction stream plus its
// constant-initialized register banks, argument registers and string
// pools. It is immutable after emission and shared by every Run.
type progCode struct {
	code   []Instr
	initF  []float64 // initial float bank (constants baked in)
	initB  []bool
	initV  []core.Value
	names  []string // field/record names
	msgs   []string // opFail messages
	aux    []int32  // operand lists for record/list construction
	method string   // for error prefixes

	args []argReg // the float registers bind writes

	// disassembly metadata: which registers hold which constants
	constsF []constReg[float64]
	constsB []constReg[bool]
	constsV []constReg[core.Value]
}

// argReg says float register reg holds symbolic argument i.
type argReg struct {
	reg int32
	i   int
}

type constReg[T any] struct {
	reg int32
	v   T
}

type regFile struct {
	f []float64
	b []bool
	v []core.Value
	// FillTable's, sized on first use: the table's strides, the free-ECV
	// vector each point runs on.
	strides []int
	vals    []core.Value
}

func (p *progCode) errf(format string, args ...interface{}) error {
	return fmt.Errorf("opt: func %s: %s", p.method, fmt.Sprintf(format, args...))
}

// exec runs the program from pc=start until opEnd (stop < 0) or until pc
// reaches stop (prefix execution). It returns the opEnd result.
func (p *progCode) exec(rf *regFile, vals []core.Value, start, stop int32) (float64, error) {
	code := p.code
	f, b, v := rf.f, rf.b, rf.v
	end := int32(len(code))
	if stop >= 0 {
		end = stop
	}
	for pc := start; pc < end; pc++ {
		in := code[pc]
		switch in.Op {
		case opNop:
		case opJmp:
			pc = in.A - 1
		case opJmpIfNot:
			if !b[in.B] {
				pc = in.A - 1
			}
		case opMovF:
			f[in.A] = f[in.B]
		case opMovB:
			b[in.A] = b[in.B]
		case opMovV:
			v[in.A] = v[in.B]
		case opAddF:
			f[in.A] = f[in.B] + f[in.C]
		case opSubF:
			f[in.A] = f[in.B] - f[in.C]
		case opMulF:
			f[in.A] = f[in.B] * f[in.C]
		case opDivF:
			d := f[in.C]
			if d == 0 {
				return 0, p.errf("division by zero")
			}
			f[in.A] = f[in.B] / d
		case opModF:
			d := f[in.C]
			if d == 0 {
				return 0, p.errf("modulo by zero")
			}
			f[in.A] = math.Mod(f[in.B], d)
		case opNegF:
			f[in.A] = -f[in.B]
		case opNotB:
			b[in.A] = !b[in.B]
		case opLtF:
			b[in.A] = f[in.B] < f[in.C]
		case opLeF:
			b[in.A] = f[in.B] <= f[in.C]
		case opGtF:
			b[in.A] = f[in.B] > f[in.C]
		case opGeF:
			b[in.A] = f[in.B] >= f[in.C]
		case opEqF:
			b[in.A] = f[in.B] == f[in.C]
		case opNeF:
			b[in.A] = f[in.B] != f[in.C]
		case opEqB:
			b[in.A] = b[in.B] == b[in.C]
		case opNeB:
			b[in.A] = b[in.B] != b[in.C]
		case opEqV:
			b[in.A] = v[in.B].Equal(v[in.C])
		case opNeV:
			b[in.A] = !v[in.B].Equal(v[in.C])
		case opCeilRaw:
			f[in.A] = math.Ceil(f[in.B])
		case opMinF:
			r := math.Min(f[in.B], f[in.C])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("min(%g, %g) is not finite", f[in.B], f[in.C])
			}
			f[in.A] = r
		case opMaxF:
			r := math.Max(f[in.B], f[in.C])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("max(%g, %g) is not finite", f[in.B], f[in.C])
			}
			f[in.A] = r
		case opPowF:
			r := math.Pow(f[in.B], f[in.C])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("pow(%g, %g) is not finite", f[in.B], f[in.C])
			}
			f[in.A] = r
		case opAbsF:
			r := math.Abs(f[in.B])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("abs(%g) is not finite", f[in.B])
			}
			f[in.A] = r
		case opCeilF:
			r := math.Ceil(f[in.B])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("ceil(%g) is not finite", f[in.B])
			}
			f[in.A] = r
		case opFloorF:
			r := math.Floor(f[in.B])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("floor(%g) is not finite", f[in.B])
			}
			f[in.A] = r
		case opSqrtF:
			r := math.Sqrt(f[in.B])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("sqrt(%g) is not finite", f[in.B])
			}
			f[in.A] = r
		case opLog2F:
			r := math.Log2(f[in.B])
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("log2(%g) is not finite", f[in.B])
			}
			f[in.A] = r
		case opLenV:
			val := v[in.B]
			switch val.Kind() {
			case core.KindList:
				f[in.A] = float64(val.Len())
			case core.KindStr:
				s, _ := val.AsStr()
				f[in.A] = float64(len(s))
			default:
				return 0, p.errf("len: argument is %s, want list or str", val.Kind())
			}
		case opFieldV:
			fv, ok := v[in.B].Field(p.names[in.C])
			if !ok {
				return 0, p.errf("value %s has no field %q", v[in.B].Kind(), p.names[in.C])
			}
			v[in.A] = fv
		case opIndexV:
			idx := int(f[in.C])
			el, ok := v[in.B].Index(idx)
			if !ok {
				return 0, p.errf("index %d out of range (len %d)", idx, v[in.B].Len())
			}
			v[in.A] = el
		case opNumV:
			n, ok := v[in.B].AsNum()
			if !ok {
				return 0, p.errf("value is %s, want num", v[in.B].Kind())
			}
			f[in.A] = n
		case opBoolV:
			bv, ok := v[in.B].AsBool()
			if !ok {
				return 0, p.errf("value is %s, want bool", v[in.B].Kind())
			}
			b[in.A] = bv
		case opBoxF:
			v[in.A] = core.Num(f[in.B])
		case opBoxB:
			v[in.A] = core.Bool(b[in.B])
		case opRecordV:
			fields := make(map[string]core.Value, in.C)
			for k := int32(0); k < in.C; k++ {
				nameIdx := p.aux[in.B+2*k]
				reg := p.aux[in.B+2*k+1]
				fields[p.names[nameIdx]] = v[reg]
			}
			v[in.A] = core.Record(fields)
		case opListV:
			elems := make([]core.Value, in.C)
			for k := int32(0); k < in.C; k++ {
				elems[k] = v[p.aux[in.B+k]]
			}
			v[in.A] = core.List(elems...)
		case opLoadF:
			n, ok := vals[in.B].AsNum()
			if !ok {
				return 0, p.errf("ECV value is %s, want num", vals[in.B].Kind())
			}
			f[in.A] = n
		case opLoadB:
			bv, ok := vals[in.B].AsBool()
			if !ok {
				return 0, p.errf("ECV value is %s, want bool", vals[in.B].Kind())
			}
			b[in.A] = bv
		case opLoadV:
			v[in.A] = vals[in.B]
		case opFrameRet:
			r := f[in.B]
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return 0, p.errf("returned non-finite energy")
			}
			f[in.A] = r
			pc = in.C - 1
		case opFail:
			return 0, p.errf("%s", p.msgs[in.A])
		case opEnd:
			return f[in.A], nil
		default:
			return 0, p.errf("bad opcode %d at pc %d", in.Op, pc)
		}
	}
	if stop >= 0 {
		return 0, nil // prefix execution stops by falling through
	}
	return 0, p.errf("program ran off the end")
}

// isLoad reports whether op reads the free-ECV slice.
func isLoad(op uint8) bool { return op == opLoadF || op == opLoadB || op == opLoadV }

// prefixLen finds the longest leading run of instructions that reads no
// free ECV and that control cannot jump out of: running it once and
// snapshotting the registers is then equivalent to running it per
// assignment. Bit-identity is structural — the same instructions run on
// the same inputs, just not repeatedly.
func prefixLen(code []Instr) int32 {
	k := int32(len(code))
	for i, in := range code {
		if isLoad(in.Op) && int32(i) < k {
			k = int32(i)
		}
	}
	// Shrink until no jump inside [0,k) targets beyond k.
	for {
		shrunk := false
		for i := int32(0); i < k; i++ {
			var tgt int32 = -1
			switch code[i].Op {
			case opJmp, opJmpIfNot:
				tgt = code[i].A
			case opFrameRet:
				tgt = code[i].C
			case opEnd, opFail:
				// Terminal inside the prefix is fine: exec stops there.
				continue
			}
			if tgt > k {
				k = i
				shrunk = true
			}
		}
		if !shrunk {
			return k
		}
	}
}

// specCode is one cached specialization: the emitted program with its
// dependency set and prefix boundary. It is immutable and shared by every
// request with the same control arguments and pinned ECVs; what a request
// owns is a bound, taken from the pool here and handed back by Release.
type specCode struct {
	p         *progCode
	deps      []int
	nFree     int
	prefixEnd int32

	bounds  sync.Pool // *bound
	scratch sync.Pool // *regFile, one per in-flight Run
}

func newSpecCode(p *progCode, deps map[int]bool, nFree int) *specCode {
	ds := make([]int, 0, len(deps))
	for d := range deps {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	s := &specCode{p: p, deps: ds, nFree: nFree, prefixEnd: prefixLen(p.code)}
	s.bounds.New = func() any { return &bound{specCode: s, snap: p.newRegFile()} }
	s.scratch.New = func() any { rf := p.newRegFile(); return &rf }
	return s
}

func (p *progCode) newRegFile() regFile {
	return regFile{
		f: make([]float64, len(p.initF)),
		b: make([]bool, len(p.initB)),
		v: make([]core.Value, len(p.initV)),
	}
}

func (rf *regFile) copyFrom(src *regFile) {
	copy(rf.f, src.f)
	copy(rf.b, src.b)
	copy(rf.v, src.v)
}

// bound is a specCode bound to one request's data arguments: the
// core.SpecializedProgram an Eval runs. snap holds the registers after the
// assignment-independent prefix and seeds every Run; a program with no
// free-ECV dependence at all is fully collapsed — the prefix is the whole
// evaluation and result its answer. Safe for concurrent Run calls until
// Release.
type bound struct {
	*specCode
	snap   regFile
	err    error // raised by the prefix: every assignment would raise it
	result float64
}

// bind starts from the constant-initialized banks, writes each symbolic
// argument into its register and runs the prefix once for this request.
func (s *specCode) bind(args []core.Value) *bound {
	b := s.bounds.Get().(*bound)
	b.snap.copyFrom(&regFile{f: s.p.initF, b: s.p.initB, v: s.p.initV})
	for _, a := range s.p.args {
		b.snap.f[a.reg], _ = args[a.i].AsNum()
	}
	if len(s.deps) == 0 {
		b.result, b.err = s.p.exec(&b.snap, nil, 0, -1)
	} else {
		_, b.err = s.p.exec(&b.snap, nil, 0, s.prefixEnd)
	}
	return b
}

// Release returns the register file to the specialization's pool; the
// bound must not be used afterwards.
func (b *bound) Release() { b.bounds.Put(b) }

func (b *bound) Deps() []int { return b.deps }

func (b *bound) Run(vals []core.Value) (float64, error) {
	if b.err != nil {
		return 0, b.err
	}
	if len(b.deps) == 0 {
		return b.result, nil
	}
	rf := b.scratch.Get().(*regFile)
	rf.copyFrom(&b.snap)
	res, err := b.p.exec(rf, vals, b.prefixEnd, -1)
	b.scratch.Put(rf)
	return res, err
}

// FillTable bulk-evaluates the dependent sub-space: the shared prefix ran
// at bind time, so only the suffix re-executes per projected assignment.
// Values are bit-identical to per-index Run calls by construction.
func (b *bound) FillTable(dims [][]core.Value, out []float64) (bool, error) {
	if b.err != nil {
		return true, b.err
	}
	if len(b.deps) == 0 {
		for i := range out {
			out[i] = b.result
		}
		return true, nil
	}
	rf := b.scratch.Get().(*regFile)
	defer b.scratch.Put(rf)
	// Row-major strides matching core's expansion: last dimension fastest.
	strides := slices.Grow(rf.strides[:0], len(dims))[:len(dims)]
	total := 1
	for j := len(dims) - 1; j >= 0; j-- {
		strides[j] = total
		total *= len(dims[j])
	}
	if total > len(out) {
		return true, b.p.errf("internal: table size %d exceeds buffer %d", total, len(out))
	}
	if rf.vals == nil {
		rf.vals = make([]core.Value, b.nFree)
	}
	rf.strides = strides
	vals := rf.vals
	for idx := 0; idx < total; idx++ {
		for j, d := range b.deps {
			vals[d] = dims[j][(idx/strides[j])%len(dims[j])]
		}
		rf.copyFrom(&b.snap)
		res, err := b.p.exec(rf, vals, b.prefixEnd, -1)
		if err != nil {
			return true, err
		}
		out[idx] = res
	}
	return true, nil
}
