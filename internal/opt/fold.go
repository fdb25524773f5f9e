package opt

import (
	"math"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
)

// foldCtx parameterizes the combined substitution + constant-folding pass.
// At compile time (prog == nil) only literal constants fold; at
// specialization time pinned ECVs and the arguments prog does not keep
// symbolic substitute to constants first, which is what makes partial
// evaluation collapse whole method bodies. A symbolic argument stays an
// irArg: every node it reaches survives for the VM to compute per request.
//
// Folding delegates every actual computation to the interpreter's own
// evaluators (eil.ApplyBinary, eil.CallBuiltin, core.Value accessors), so
// folded results are bit-identical to runtime ones. A fold that errors
// (e.g. a constant division by zero) leaves the node in place: the
// emitted program then produces the same runtime error the interpreter
// would — dead-branch elimination may legitimately remove it first.
type foldCtx struct {
	prog    *Program // non-nil at specialization time: substitute args and pinned
	args    []core.Value
	pinned  map[string]core.Value
	freeIdx map[string]int
	props   map[*irSlot]irExpr // immutable slots bound to a constant, an argument or another such slot
	err     error              // sticky decline (unknown free ECV)

	// private, when non-nil, makes the fold's output own its slots: every
	// slot is replaced by a copy on first sight. The fold rebuilds every
	// node that holds one, so a specialization — whose emit pass writes
	// slot types and registers — shares nothing mutable with the program's
	// IR or with a concurrent specialization.
	private map[*irSlot]*irSlot
}

func (f *foldCtx) slot(s *irSlot) *irSlot {
	if f.private == nil {
		return s
	}
	c, ok := f.private[s]
	if !ok {
		c = &irSlot{name: s.name, id: s.id, mutated: s.mutated, t: s.t, reg: -1}
		f.private[s] = c
	}
	return c
}

// propagated returns what a read of an immutable slot bound to init folds
// to: a constant, an argument read, or a read of another immutable slot —
// none can change between the binding and the read (a loop that rebinds
// the other slot rebinds this one after it). Either way the read stays
// one interpreter step.
func propagated(init irExpr) (irExpr, bool) {
	for {
		switch x := init.(type) {
		case irConst:
			return irConst{v: x.v, w: 1}, true
		case irArg:
			return x, true
		case irVar:
			return x, !x.slot.mutated
		case *irSteps:
			init = x.x
		default:
			return nil, false
		}
	}
}

func (f *foldCtx) foldStmts(stmts []irStmt) []irStmt {
	out := make([]irStmt, len(stmts))
	for i, st := range stmts {
		switch s := st.(type) {
		case *irLet:
			init := f.foldExpr(s.init)
			if p, ok := propagated(init); ok && !s.slot.mutated {
				f.props[s.slot] = p
			}
			out[i] = &irLet{slot: f.slot(s.slot), init: init, noStep: s.noStep}
		case *irAssign:
			out[i] = &irAssign{slot: f.slot(s.slot), x: f.foldExpr(s.x)}
		case *irIf:
			out[i] = &irIf{cond: f.foldExpr(s.cond), then: f.foldStmts(s.then), els: f.foldStmts(s.els)}
		case *irFor:
			out[i] = &irFor{slot: f.slot(s.slot), from: f.foldExpr(s.from), to: f.foldExpr(s.to), body: f.foldStmts(s.body)}
		case *irReturn:
			out[i] = &irReturn{x: f.foldExpr(s.x)}
		default:
			out[i] = st
		}
	}
	return out
}

func (f *foldCtx) foldExpr(e irExpr) irExpr {
	switch x := e.(type) {
	case irConst:
		return x
	case irArg:
		if f.prog != nil && !f.prog.symbolic(x.i, f.args) {
			// An argument read is an Ident evaluation: one step.
			return irConst{v: f.args[x.i], w: 1}
		}
		return x
	case irVar:
		if p, ok := f.props[x.slot]; ok {
			return p
		}
		return irVar{slot: f.slot(x.slot)}
	case irECV:
		if f.prog == nil {
			return x
		}
		if v, ok := f.pinned[x.qn]; ok {
			return irConst{v: v, w: 1}
		}
		if idx, ok := f.freeIdx[x.qn]; ok {
			return irFree{idx: idx, qn: x.qn, t: x.t}
		}
		// Not pinned and not free: the interpreter would fail "ECV not
		// assigned"; decline and let it.
		if f.err == nil {
			f.err = decline("ECV %q not assigned", x.qn)
		}
		return x
	case irFree:
		return x
	case *irUnary:
		ix := f.foldExpr(x.x)
		if v, ok := constOf(ix); ok {
			switch x.op {
			case eil.TokMinus:
				if n, ok := v.AsNum(); ok {
					return irConst{v: core.Num(-n), w: 1 + weight(ix)}
				}
			case eil.TokBang:
				if b, ok := v.AsBool(); ok {
					return irConst{v: core.Bool(!b), w: 1 + weight(ix)}
				}
			}
			// Type error at runtime: keep the node.
		}
		return &irUnary{op: x.op, x: ix}
	case *irBinary:
		ix := f.foldExpr(x.x)
		iy := f.foldExpr(x.y)
		vx, okx := constOf(ix)
		vy, oky := constOf(iy)
		if okx && oky {
			if v, err := eil.ApplyBinary(eil.Pos{}, x.op, vx, vy); err == nil {
				return irConst{v: v, w: 1 + weight(ix) + weight(iy)}
			}
			// Runtime error (div/mod by zero, type mismatch): keep.
			return &irBinary{op: x.op, x: ix, y: iy}
		}
		// IEEE-exact simplifications only: x*1, 1*x, x/1, x-0 return x
		// bit-for-bit for every float64 input (including -0, NaN, ±Inf).
		// x+0 and 0+x are NOT exact (-0.0 + 0.0 == +0.0) and stay put.
		if n, isNum := numConst(iy); isNum {
			if (x.op == eil.TokStar && n == 1) || (x.op == eil.TokSlash && n == 1) ||
				(x.op == eil.TokMinus && n == 0 && !math.Signbit(n)) {
				return simplified(ix, 1+weight(iy))
			}
		}
		if n, isNum := numConst(ix); isNum && x.op == eil.TokStar && n == 1 {
			return simplified(iy, 1+weight(ix))
		}
		return &irBinary{op: x.op, x: ix, y: iy}
	case *irCond:
		cond := f.foldExpr(x.cond)
		then := f.foldExpr(x.then)
		els := f.foldExpr(x.els)
		if b, ok := constBool(cond); ok {
			// The interpreter evaluates the condition and then only the
			// taken arm — eliminating the dead arm is behavior-preserving,
			// and the condition's steps ride along on the survivor.
			taken := then
			if !b {
				taken = els
			}
			return simplified(taken, 1+weight(cond))
		}
		return &irCond{cond: cond, then: then, els: els}
	case *irCall:
		args := make([]irExpr, len(x.args))
		vals := make([]core.Value, len(x.args))
		allConst := true
		var w int64 = 1
		for i, a := range x.args {
			args[i] = f.foldExpr(a)
			w += weight(args[i])
			if v, ok := constOf(args[i]); ok {
				vals[i] = v
			} else {
				allConst = false
			}
		}
		if allConst {
			if v, err := eil.CallBuiltin(x.name, vals); err == nil {
				return irConst{v: v, w: w}
			}
		}
		return &irCall{name: x.name, args: args}
	case *irField:
		ix := f.foldExpr(x.x)
		if v, ok := constOf(ix); ok {
			if fv, ok := v.Field(x.name); ok {
				return irConst{v: fv, w: 1 + weight(ix)}
			}
		}
		return &irField{x: ix, name: x.name}
	case *irIndex:
		ix := f.foldExpr(x.x)
		ii := f.foldExpr(x.i)
		if v, ok := constOf(ix); ok {
			if iv, ok := constOf(ii); ok {
				if n, isNum := iv.AsNum(); isNum {
					if el, ok := v.Index(int(n)); ok {
						return irConst{v: el, w: 1 + weight(ix) + weight(ii)}
					}
				}
			}
		}
		return &irIndex{x: ix, i: ii}
	case *irRecord:
		vals := make([]irExpr, len(x.vals))
		fields := make(map[string]core.Value, len(x.vals))
		allConst := true
		var w int64 = 1
		for i, v := range x.vals {
			vals[i] = f.foldExpr(v)
			w += weight(vals[i])
			if c, ok := constOf(vals[i]); ok {
				fields[x.names[i]] = c
			} else {
				allConst = false
			}
		}
		if allConst {
			return irConst{v: core.Record(fields), w: w}
		}
		return &irRecord{names: x.names, vals: vals}
	case *irList:
		elems := make([]irExpr, len(x.elems))
		vals := make([]core.Value, len(x.elems))
		allConst := true
		var w int64 = 1
		for i, el := range x.elems {
			elems[i] = f.foldExpr(el)
			w += weight(elems[i])
			if c, ok := constOf(elems[i]); ok {
				vals[i] = c
			} else {
				allConst = false
			}
		}
		if allConst {
			return irConst{v: core.List(vals...), w: w}
		}
		return &irList{elems: elems}
	case *irBlock:
		return &irBlock{stmts: f.foldStmts(x.stmts), w0: x.w0}
	case *irSteps:
		inner := f.foldExpr(x.x)
		return simplified(inner, x.extra)
	default:
		return e
	}
}

// simplified wraps e with extra interpreter steps, merging nested
// wrappers and folding the weight into constants directly.
func simplified(e irExpr, extra int64) irExpr {
	if extra == 0 {
		return e
	}
	switch x := e.(type) {
	case irConst:
		return irConst{v: x.v, w: satAdd(x.w, extra)}
	case *irSteps:
		return &irSteps{x: x.x, extra: satAdd(x.extra, extra)}
	default:
		return &irSteps{x: e, extra: extra}
	}
}

func numConst(e irExpr) (float64, bool) {
	v, ok := constOf(e)
	if !ok {
		return 0, false
	}
	return v.AsNum()
}

// --- fuel bound ---------------------------------------------------------

// stepCap saturates step arithmetic well above eil.DefaultFuel.
const stepCap = int64(1) << 50

func satAdd(a, b int64) int64 {
	s := a + b
	if s > stepCap || s < 0 {
		return stepCap
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > stepCap/b {
		return stepCap
	}
	return a * b
}

// weight is the upper bound on interpreter steps to evaluate e's original
// source form. Constants carry the accumulated weight of what they folded
// from; structural nodes cost one step plus their children.
func weight(e irExpr) int64 {
	switch x := e.(type) {
	case irConst:
		return x.w
	case irArg, irVar, irECV, irFree:
		return 1
	case *irSteps:
		return satAdd(x.extra, weight(x.x))
	case *irUnary:
		return satAdd(1, weight(x.x))
	case *irBinary:
		return satAdd(1, satAdd(weight(x.x), weight(x.y)))
	case *irCond:
		wt, we := weight(x.then), weight(x.els)
		if we > wt {
			wt = we
		}
		return satAdd(1, satAdd(weight(x.cond), wt))
	case *irCall:
		w := int64(1)
		for _, a := range x.args {
			w = satAdd(w, weight(a))
		}
		return w
	case *irField:
		return satAdd(1, weight(x.x))
	case *irIndex:
		return satAdd(1, satAdd(weight(x.x), weight(x.i)))
	case *irRecord:
		w := int64(1)
		for _, v := range x.vals {
			w = satAdd(w, weight(v))
		}
		return w
	case *irList:
		w := int64(1)
		for _, el := range x.elems {
			w = satAdd(w, weight(el))
		}
		return w
	case *irBlock:
		w, err := boundStmts(x.stmts)
		if err != nil {
			return stepCap
		}
		return satAdd(x.w0, w)
	default:
		return stepCap
	}
}

// boundStmts computes the statement list's step bound, declining on loops
// whose bounds did not specialize to constants — exactly the methods that
// could exhaust the interpreter's fuel.
func boundStmts(stmts []irStmt) (int64, error) {
	var total int64
	for _, st := range stmts {
		step := int64(1)
		switch s := st.(type) {
		case *irLet:
			if s.noStep {
				step = 0
			}
			total = satAdd(total, satAdd(step, weight(s.init)))
		case *irAssign:
			total = satAdd(total, satAdd(1, weight(s.x)))
		case *irReturn:
			total = satAdd(total, satAdd(1, weight(s.x)))
		case *irIf:
			wThen, err := boundStmts(s.then)
			if err != nil {
				return 0, err
			}
			wEls, err := boundStmts(s.els)
			if err != nil {
				return 0, err
			}
			w := wThen
			if b, ok := constBool(s.cond); ok {
				// Constant condition: the interpreter always takes one arm.
				if !b {
					w = wEls
				}
			} else if wEls > w {
				w = wEls
			}
			total = satAdd(total, satAdd(1, satAdd(weight(s.cond), w)))
		case *irFor:
			trips, err := loopTrips(s)
			if err != nil {
				return 0, err
			}
			body, err := boundStmts(s.body)
			if err != nil {
				return 0, err
			}
			w := satAdd(weight(s.from), weight(s.to))
			w = satAdd(w, satMul(trips, satAdd(1, body)))
			total = satAdd(total, satAdd(1, w))
		default:
			return 0, decline("unknown statement in bound")
		}
		if total >= stepCap {
			return stepCap, nil
		}
	}
	return total, nil
}

// loopTrips statically counts iterations of a specialized loop: both
// bounds must have folded to constant nums. The interpreter runs
// i := ceil(from); i < to; i++ — non-finite or out-of-float-integer-range
// starts decline (the float increment could stall and exhaust fuel).
func loopTrips(s *irFor) (int64, error) {
	fromV, ok1 := constOf(s.from)
	toV, ok2 := constOf(s.to)
	if !ok1 || !ok2 {
		return 0, decline("loop bound not a specialization-time constant")
	}
	from, okN1 := fromV.AsNum()
	to, okN2 := toV.AsNum()
	if !okN1 || !okN2 {
		// The interpreter errors "for bounds must be num" at runtime.
		return 0, decline("loop bound is not a num")
	}
	i0 := math.Ceil(from)
	if !(i0 < to) { // handles NaN and from >= to: zero iterations
		return 0, nil
	}
	if math.IsInf(i0, 0) || math.Abs(i0) >= 1<<53 || math.IsInf(to, 0) {
		return 0, decline("loop bounds outside exact float integer range")
	}
	n := to - i0
	if n >= float64(eil.DefaultFuel) {
		return 0, decline("loop runs %g iterations, over the fuel budget", n)
	}
	return int64(math.Ceil(n)), nil
}
