package opt

import (
	"sort"
	"sync"

	"energyclarity/internal/cache"
	"energyclarity/internal/core"
	"energyclarity/internal/eil"
)

// init wires the compiler into core: importing this package (even blank)
// routes every Interface.Eval through compiled programs, with transparent
// interpreter fallback for anything the compiler declines.
func init() {
	core.RegisterCompiler(CompileMethod)
}

// specCacheSize bounds each program's specialization cache. An entry is
// keyed by the control arguments and the pinned ECV values — data
// arguments are bound per request and never reach the key — so the live
// key space is a handful of loop bounds, DVFS levels and pinned shapes;
// beyond the bound the least recently used specialization is re-emitted
// on its next use.
const specCacheSize = 128

// Program is a compiled method: the folded IR after lowering and
// inlining, specialized on demand for each distinct tuple of control
// arguments and pinned ECVs, and bound per Eval to the request's data
// arguments. It implements core.CompiledProgram and is safe for
// concurrent use (the IR is immutable after compilation; a specialization
// folds it into a copy with slots of its own).
type Program struct {
	method string
	ir     *irBlock
	params []paramUse // one per parameter

	mu    sync.Mutex
	specs *cache.Store[*specEntry]
}

// specEntry is one cache slot. once makes concurrent requests for a new
// key emit its code exactly once; code stays nil for a declined
// specialization, so the fallback is not re-analyzed on every Eval.
type specEntry struct {
	once sync.Once
	code *specCode
}

// lowerSource lowers one EIL method of root with every reachable callee
// inlined and its parameters as irArg reads.
func lowerSource(root *core.Interface, fn *eil.FuncDecl) (*irBlock, error) {
	args := make([]irExpr, len(fn.Params))
	for i := range args {
		args[i] = irArg{i: i}
	}
	return (&lowerer{}).lowerMethod(root, "", fn, args, 0)
}

// foldLiterals is the compile-time constant folding pass: literal
// arithmetic collapses here; argument- and ECV-dependent folding waits for
// specialization.
func foldLiterals(blk *irBlock) *irBlock {
	fc := &foldCtx{props: map[*irSlot]irExpr{}}
	return &irBlock{stmts: fc.foldStmts(blk.stmts), w0: blk.w0}
}

// CompileMethod compiles one method of the tree rooted at root. It is the
// core.MethodCompiler this package registers. A (nil, nil) return means
// the method is outside the compiled subset (Go-native body, unresolvable
// call graph, recursion, excessive depth) and evaluation stays on the
// interpreter.
func CompileMethod(root *core.Interface, method string) (core.CompiledProgram, error) {
	m := root.Method(method)
	if m == nil {
		return nil, nil
	}
	fn, ok := m.Source.(*eil.FuncDecl)
	if !ok || fn == nil {
		return nil, nil
	}
	blk, err := lowerSource(root, fn)
	if err != nil {
		if _, declined := err.(*declineError); declined {
			return nil, nil
		}
		return nil, err
	}
	return newProgram(method, len(fn.Params), foldLiterals(blk)), nil
}

func newProgram(method string, nParams int, ir *irBlock) *Program {
	return &Program{
		method: method,
		ir:     ir,
		params: classifyParams(ir, nParams),
		specs:  cache.NewStore[*specEntry](specCacheSize),
	}
}

// symbolic reports whether argument i stays a runtime register for this
// request: its parameter is data and the request passed a num. It is the
// one decision both the cache key and the fold read, so a non-num passed
// for a data parameter keys and folds by value like a control argument.
func (p *Program) symbolic(i int, args []core.Value) bool {
	return p.params[i] == useData && args[i].Kind() == core.KindNum
}

// Specialize returns the program bound to one request. The emitted code is
// looked up (or partially evaluated and emitted, once) under the control
// arguments and pinned ECV values; binding then writes the data arguments
// into a pooled register file and runs the assignment-independent prefix.
// free must be the tree's transitive ECVs minus the pinned ones, in
// order — it is a function of pinned, which is why it is not part of the
// key. ok=false declines to the interpreter.
func (p *Program) Specialize(args []core.Value, pinned map[string]core.Value, free []core.QualifiedECV) (core.SpecializedProgram, bool) {
	// The interpreter rejects argument-count mismatches at runtime (except
	// for zero-parameter methods, which accept anything); decline and let
	// it produce that error.
	if len(p.params) != 0 && len(args) != len(p.params) {
		return nil, false
	}
	var buf [128]byte
	key := p.appendKey(buf[:0], args, pinned)
	p.mu.Lock()
	ent, ok := p.specs.Get(string(key))
	if !ok {
		ent = &specEntry{}
		p.specs.Put(string(key), ent)
	}
	p.mu.Unlock()
	ent.once.Do(func() { ent.code = p.specialize(args, pinned, free) })
	if ent.code == nil {
		return nil, false
	}
	return ent.code.bind(args), true
}

// specialize emits the code for one cache key, or nil to decline.
func (p *Program) specialize(args []core.Value, pinned map[string]core.Value, free []core.QualifiedECV) *specCode {
	blk, err := p.partialEval(args, pinned, free)
	if err == nil {
		err = checkFuel(blk)
	}
	if err != nil {
		return nil
	}
	code, deps, err := emitProgram(blk, p.method)
	if err != nil {
		return nil
	}
	core.CountSpecialization()
	return newSpecCode(code, deps, len(free))
}

// partialEval folds the program into a private copy for one cache key:
// control arguments and pinned ECVs become constants, unpinned ECV reads
// resolve to their index in free, symbolic arguments stay irArg.
func (p *Program) partialEval(args []core.Value, pinned map[string]core.Value, free []core.QualifiedECV) (*irBlock, error) {
	freeIdx := make(map[string]int, len(free))
	for i, q := range free {
		freeIdx[q.QualifiedName()] = i
	}
	fc := &foldCtx{
		prog:    p,
		args:    args,
		pinned:  pinned,
		freeIdx: freeIdx,
		props:   map[*irSlot]irExpr{},
		private: map[*irSlot]*irSlot{},
	}
	return &irBlock{stmts: fc.foldStmts(p.ir.stmts), w0: p.ir.w0}, fc.err
}

// checkFuel declines a residual program whose interpreter step bound
// reaches the budget: the interpreter could return ErrFuelExhausted where
// the compiled program would happily keep running. The bound is the same
// number for every value of a symbolic argument — an irArg weighs what
// the constant it replaces would, and only constant conditions and loop
// trip counts make the bound value-dependent, both control by
// construction.
func checkFuel(blk *irBlock) error {
	bound, err := boundStmts(blk.stmts)
	if err != nil {
		return err
	}
	if total := satAdd(blk.w0, bound); total >= int64(eil.DefaultFuel) {
		return decline("static step bound %d exceeds fuel budget %d", total, eil.DefaultFuel)
	}
	return nil
}

// appendKey appends the cache key of one request: each argument by value,
// or by the bare fact that it is a num when it stays symbolic, then the
// pinned assignments sorted by name.
func (p *Program) appendKey(key []byte, args []core.Value, pinned map[string]core.Value) []byte {
	for i := range p.params {
		if p.symbolic(i, args) {
			key = append(key, '#')
		} else {
			key = args[i].AppendKey(key)
		}
		key = append(key, 0)
	}
	if len(pinned) == 0 {
		return key
	}
	names := make([]string, 0, len(pinned))
	for k := range pinned {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		key = append(key, 1)
		key = append(key, k...)
		key = append(key, 2)
		key = pinned[k].AppendKey(key)
	}
	return key
}
