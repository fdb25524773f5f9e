// Package opt is the EIL optimizing compiler: it lowers checked EIL method
// bodies (core.Method.Source) into flat instruction programs executed by a
// tight switch loop, with no AST pointers and no per-step allocations.
//
// The pipeline is
//
//	lower      — resolve names, inline every Self/E call (cycle- and
//	             depth-guarded), producing a single tree IR per method
//	fold       — constant folding and bit-exact arithmetic simplification
//	classify   — one dependence pass decides, per parameter, whether its
//	             value can reach control flow or a non-num (control) or
//	             only flows through arithmetic into the result (data)
//	specialize — partial evaluation for one Eval's control arguments and
//	             pinned ECVs: both become immediates, dead branches drop,
//	             loop bounds become static, and the residual program's
//	             interpreter step count is bounded against eil.DefaultFuel;
//	             data arguments stay symbolic
//	emit       — flat []Instr over three register banks (floats, bools,
//	             values) with jump-based control flow; each symbolic
//	             argument gets a float register
//	bind       — per request: write the data arguments into a register
//	             file and run the assignment-independent prefix once
//
// Compiled evaluation is bit-identical to the tree-walking interpreter:
// folding reuses the interpreter's own evaluators (eil.ApplyBinary,
// eil.CallBuiltin), only all-constant subtrees fold, simplifications are
// restricted to IEEE-exact identities, and any construct outside the
// compiled subset declines so core falls back to the interpreter.
// Declining is always safe — the fallback defines the reference semantics.
package opt

import (
	"energyclarity/internal/core"
	"energyclarity/internal/eil"
)

// irType is the static type lattice for emission: num and bool map to
// dedicated register banks; val is the dynamic top (boxed core.Value).
type irType uint8

const (
	tUnknown irType = iota
	tNum
	tBool
	tVal
)

func (t irType) String() string {
	switch t {
	case tNum:
		return "num"
	case tBool:
		return "bool"
	case tVal:
		return "val"
	default:
		return "?"
	}
}

func joinType(a, b irType) irType {
	if a == b {
		return a
	}
	if a == tUnknown {
		return b
	}
	if b == tUnknown {
		return a
	}
	return tVal
}

// irSlot is one local variable (let binding, loop variable, or inlined
// parameter). Slots are unique per declaration — lexical scoping is
// resolved during lowering — so constant propagation needs no scope
// tracking: a slot's init dominates every read.
type irSlot struct {
	name    string
	id      int
	mutated bool   // target of an assignment, or a loop variable
	t       irType // filled by the emit typing pass
	reg     int32  // register within the t bank, assigned at emit
}

// irExpr nodes carry w, the upper bound on the interpreter steps their
// ORIGINAL (pre-fold) source form costs. Fold accumulates weights into the
// constants it produces so the fuel bound computed on folded IR never
// under-counts what the interpreter would spend — if the interpreter could
// exhaust DefaultFuel, specialization must decline, not diverge.
type irExpr interface{ isExpr() }

type irConst struct {
	v core.Value
	w int64 // steps of the subtree this constant folded from
}

// irArg is a read of method argument i. Specialization substitutes a
// constant for it, or — for a data parameter the request passed a num for
// (Program.symbolic) — leaves it for the emitter, which gives it a float
// register written at bind time. Like a constant it never changes during
// an evaluation.
type irArg struct{ i int }

type irVar struct{ slot *irSlot }

// irECV is an ECV read by qualified name; specialization replaces it with
// an irConst (pinned) or an irFree (enumerated/sampled).
type irECV struct {
	qn string
	t  irType // from the ECV's declared support kinds
}

// irFree is a post-specialization read of free ECV idx (an index into the
// free slice core passes to SpecializedProgram.Run).
type irFree struct {
	idx int
	qn  string
	t   irType
}

type irUnary struct {
	op eil.TokKind
	x  irExpr
}

type irBinary struct {
	op   eil.TokKind
	x, y irExpr
}

// irCond is a short-circuit conditional expression: && and || lower to it,
// and fold produces it nowhere else. Emission evaluates only the taken arm.
type irCond struct{ cond, then, els irExpr }

// irCall is a builtin call (the only calls left after inlining).
type irCall struct {
	name string
	args []irExpr
}

type irField struct {
	x    irExpr
	name string
}

type irIndex struct{ x, i irExpr }

type irRecord struct {
	names []string
	vals  []irExpr
}

type irList struct{ elems []irExpr }

// irBlock is one call frame: the top-level method body or an inlined
// callee. Its returns coerce to num and check finiteness (the interpreter
// does both per frame), so a block's static type is always num. w0 is the
// CallExpr evaluation step for inlined frames (0 for the top frame).
type irBlock struct {
	stmts []irStmt
	w0    int64
}

// irSteps wraps a simplified expression with the interpreter steps the
// simplification removed, keeping the fuel bound an over-approximation.
type irSteps struct {
	x     irExpr
	extra int64
}

func (irConst) isExpr()   {}
func (irArg) isExpr()     {}
func (irVar) isExpr()     {}
func (irECV) isExpr()     {}
func (irFree) isExpr()    {}
func (*irUnary) isExpr()  {}
func (*irBinary) isExpr() {}
func (*irCond) isExpr()   {}
func (*irCall) isExpr()   {}
func (*irField) isExpr()  {}
func (*irIndex) isExpr()  {}
func (*irRecord) isExpr() {}
func (*irList) isExpr()   {}
func (*irBlock) isExpr()  {}
func (*irSteps) isExpr()  {}

type irStmt interface{ isStmt() }

// irLet binds a slot. noStep marks synthetic lets (inlined parameter
// bindings) the interpreter executes without a statement step.
type irLet struct {
	slot   *irSlot
	init   irExpr
	noStep bool
}

type irAssign struct {
	slot *irSlot
	x    irExpr
}

type irIf struct {
	cond      irExpr
	then, els []irStmt
}

type irFor struct {
	slot     *irSlot
	from, to irExpr
	body     []irStmt
}

type irReturn struct{ x irExpr }

func (*irLet) isStmt()    {}
func (*irAssign) isStmt() {}
func (*irIf) isStmt()     {}
func (*irFor) isStmt()    {}
func (*irReturn) isStmt() {}

// constOf returns the constant behind e, looking through irSteps wrappers.
func constOf(e irExpr) (core.Value, bool) {
	for {
		switch x := e.(type) {
		case irConst:
			return x.v, true
		case *irSteps:
			e = x.x
		default:
			return core.Value{}, false
		}
	}
}

// constBool returns e's value if it is a constant bool.
func constBool(e irExpr) (bool, bool) {
	v, ok := constOf(e)
	if !ok {
		return false, false
	}
	return v.AsBool()
}
