package opt

import (
	"math"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
)

// --- typing -------------------------------------------------------------

// inferTypes assigns each slot a register bank by fixpoint over its
// assignments. EIL is dynamically typed, so a slot rebound across kinds
// lands in the boxed value bank; the overwhelmingly common case is a
// stable num or bool. Loop variables are always num.
func inferTypes(blk *irBlock) {
	for {
		changed := false
		typeStmts(blk.stmts, &changed)
		if !changed {
			break
		}
	}
	finalizeSlots(blk.stmts)
}

func typeStmts(stmts []irStmt, changed *bool) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *irLet:
			noteSlot(s.slot, typeOfWalk(s.init, changed), changed)
		case *irAssign:
			noteSlot(s.slot, typeOfWalk(s.x, changed), changed)
		case *irIf:
			typeOfWalk(s.cond, changed)
			typeStmts(s.then, changed)
			typeStmts(s.els, changed)
		case *irFor:
			noteSlot(s.slot, tNum, changed)
			typeOfWalk(s.from, changed)
			typeOfWalk(s.to, changed)
			typeStmts(s.body, changed)
		case *irReturn:
			typeOfWalk(s.x, changed)
		}
	}
}

func noteSlot(slot *irSlot, t irType, changed *bool) {
	nt := joinType(slot.t, t)
	if nt != slot.t {
		slot.t = nt
		*changed = true
	}
}

// typeOfWalk is typeOf that also descends into nested blocks (inlined
// calls inside expressions) so their slots get typed.
func typeOfWalk(e irExpr, changed *bool) irType {
	switch x := e.(type) {
	case irConst:
		return kindType(x.v)
	case irArg:
		return tNum // only a num stays symbolic (Program.symbolic)
	case irVar:
		return x.slot.t
	case irECV:
		return x.t
	case irFree:
		return x.t
	case *irUnary:
		typeOfWalk(x.x, changed)
		if x.op == eil.TokBang {
			return tBool
		}
		return tNum
	case *irBinary:
		typeOfWalk(x.x, changed)
		typeOfWalk(x.y, changed)
		switch x.op {
		case eil.TokPlus, eil.TokMinus, eil.TokStar, eil.TokSlash, eil.TokPercent:
			return tNum
		default:
			return tBool
		}
	case *irCond:
		typeOfWalk(x.cond, changed)
		wt := typeOfWalk(x.then, changed)
		we := typeOfWalk(x.els, changed)
		if b, ok := constBool(x.cond); ok {
			if b {
				return wt
			}
			return we
		}
		return joinType(wt, we)
	case *irCall:
		for _, a := range x.args {
			typeOfWalk(a, changed)
		}
		return tNum // every builtin returns num
	case *irField:
		typeOfWalk(x.x, changed)
		return tVal
	case *irIndex:
		typeOfWalk(x.x, changed)
		typeOfWalk(x.i, changed)
		return tVal
	case *irRecord:
		for _, v := range x.vals {
			typeOfWalk(v, changed)
		}
		return tVal
	case *irList:
		for _, el := range x.elems {
			typeOfWalk(el, changed)
		}
		return tVal
	case *irBlock:
		typeStmts(x.stmts, changed)
		return tNum
	case *irSteps:
		return typeOfWalk(x.x, changed)
	default:
		return tVal
	}
}

func kindType(v core.Value) irType {
	switch v.Kind() {
	case core.KindNum:
		return tNum
	case core.KindBool:
		return tBool
	default:
		return tVal
	}
}

// finalizeSlots defaults any slot the fixpoint could not ground (init
// depends on a value-typed chain) to the boxed bank.
func finalizeSlots(stmts []irStmt) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *irLet:
			if s.slot.t == tUnknown {
				s.slot.t = tVal
			}
			finalizeExpr(s.init)
		case *irAssign:
			finalizeExpr(s.x)
		case *irIf:
			finalizeExpr(s.cond)
			finalizeSlots(s.then)
			finalizeSlots(s.els)
		case *irFor:
			finalizeExpr(s.from)
			finalizeExpr(s.to)
			finalizeSlots(s.body)
		case *irReturn:
			finalizeExpr(s.x)
		}
	}
}

func finalizeExpr(e irExpr) {
	switch x := e.(type) {
	case *irUnary:
		finalizeExpr(x.x)
	case *irBinary:
		finalizeExpr(x.x)
		finalizeExpr(x.y)
	case *irCond:
		finalizeExpr(x.cond)
		finalizeExpr(x.then)
		finalizeExpr(x.els)
	case *irCall:
		for _, a := range x.args {
			finalizeExpr(a)
		}
	case *irField:
		finalizeExpr(x.x)
	case *irIndex:
		finalizeExpr(x.x)
		finalizeExpr(x.i)
	case *irRecord:
		for _, v := range x.vals {
			finalizeExpr(v)
		}
	case *irList:
		for _, el := range x.elems {
			finalizeExpr(el)
		}
	case *irBlock:
		finalizeSlots(x.stmts)
	case *irSteps:
		finalizeExpr(x.x)
	}
}

// --- emission -----------------------------------------------------------

type emitFrame struct {
	retReg     int32
	retPatches []int32 // opFrameRet positions whose C targets the frame end
}

type emitter struct {
	p          *progCode
	nF, nB, nV int32
	fconst     map[uint64]int32 // Float64bits key: -0 and NaN handled exactly
	bconst     map[bool]int32
	vconst     map[string]int32 // Value.Key()
	argReg     map[int]int32    // symbolic argument -> its float register
	nameIdx    map[string]int32
	msgIdx     map[string]int32
	deps       map[int]bool
	frames     []*emitFrame
}

// emitProgram lowers a specialized irBlock to a flat program. deps is the
// set of free-ECV indices with an emitted load — constant-condition
// branches are skipped entirely, so ECVs read only on dead paths do not
// count as dependencies (the distribution-collapse pass).
func emitProgram(blk *irBlock, method string) (*progCode, map[int]bool, error) {
	inferTypes(blk)
	em := &emitter{
		p:       &progCode{method: method},
		fconst:  map[uint64]int32{},
		bconst:  map[bool]int32{},
		vconst:  map[string]int32{},
		argReg:  map[int]int32{},
		nameIdx: map[string]int32{},
		msgIdx:  map[string]int32{},
		deps:    map[int]bool{},
	}
	res, _, err := em.emitExpr(blk)
	if err != nil {
		return nil, nil, err
	}
	em.emit(opEnd, res, 0, 0)
	p := em.p
	p.initF = make([]float64, em.nF)
	for _, c := range p.constsF {
		p.initF[c.reg] = c.v
	}
	p.initB = make([]bool, em.nB)
	for _, c := range p.constsB {
		p.initB[c.reg] = c.v
	}
	p.initV = make([]core.Value, em.nV)
	for _, c := range p.constsV {
		p.initV[c.reg] = c.v
	}
	return p, em.deps, nil
}

func (em *emitter) emit(op uint8, a, b, c int32) int32 {
	em.p.code = append(em.p.code, Instr{Op: op, A: a, B: b, C: c})
	return int32(len(em.p.code) - 1)
}

func (em *emitter) here() int32 { return int32(len(em.p.code)) }

func (em *emitter) patchA(pos, target int32) { em.p.code[pos].A = target }

func (em *emitter) allocF() int32 { em.nF++; return em.nF - 1 }
func (em *emitter) allocB() int32 { em.nB++; return em.nB - 1 }
func (em *emitter) allocV() int32 { em.nV++; return em.nV - 1 }

func (em *emitter) alloc(t irType) int32 {
	switch t {
	case tNum:
		return em.allocF()
	case tBool:
		return em.allocB()
	default:
		return em.allocV()
	}
}

func (em *emitter) fConst(n float64) int32 {
	key := math.Float64bits(n)
	if r, ok := em.fconst[key]; ok {
		return r
	}
	r := em.allocF()
	em.fconst[key] = r
	em.p.constsF = append(em.p.constsF, constReg[float64]{reg: r, v: n})
	return r
}

func (em *emitter) bConst(b bool) int32 {
	if r, ok := em.bconst[b]; ok {
		return r
	}
	r := em.allocB()
	em.bconst[b] = r
	em.p.constsB = append(em.p.constsB, constReg[bool]{reg: r, v: b})
	return r
}

func (em *emitter) vConst(v core.Value) int32 {
	key := v.Key()
	if r, ok := em.vconst[key]; ok {
		return r
	}
	r := em.allocV()
	em.vconst[key] = r
	em.p.constsV = append(em.p.constsV, constReg[core.Value]{reg: r, v: v})
	return r
}

func (em *emitter) constReg(v core.Value) (int32, irType) {
	switch v.Kind() {
	case core.KindNum:
		n, _ := v.AsNum()
		return em.fConst(n), tNum
	case core.KindBool:
		b, _ := v.AsBool()
		return em.bConst(b), tBool
	default:
		return em.vConst(v), tVal
	}
}

func (em *emitter) name(s string) int32 {
	if i, ok := em.nameIdx[s]; ok {
		return i
	}
	i := int32(len(em.p.names))
	em.p.names = append(em.p.names, s)
	em.nameIdx[s] = i
	return i
}

func (em *emitter) msg(s string) int32 {
	if i, ok := em.msgIdx[s]; ok {
		return i
	}
	i := int32(len(em.p.msgs))
	em.p.msgs = append(em.p.msgs, s)
	em.msgIdx[s] = i
	return i
}

func (em *emitter) slotReg(s *irSlot) int32 {
	if s.reg < 0 {
		s.reg = em.alloc(s.t)
	}
	return s.reg
}

// coerce bridges an expression's natural bank to the bank its consumer
// needs. Static kind mismatches the interpreter only detects at runtime
// (a bool where a num is needed) become an unconditional opFail at that
// program point: the error fires exactly when the interpreter's would.
func (em *emitter) coerce(reg int32, from, to irType) int32 {
	if from == to {
		return reg
	}
	switch to {
	case tVal:
		r := em.allocV()
		if from == tNum {
			em.emit(opBoxF, r, reg, 0)
		} else {
			em.emit(opBoxB, r, reg, 0)
		}
		return r
	case tNum:
		if from == tVal {
			r := em.allocF()
			em.emit(opNumV, r, reg, 0)
			return r
		}
		em.emit(opFail, em.msg("operand is bool, want num"), 0, 0)
		return em.allocF()
	default: // tBool
		if from == tVal {
			r := em.allocB()
			em.emit(opBoolV, r, reg, 0)
			return r
		}
		em.emit(opFail, em.msg("condition is num, want bool"), 0, 0)
		return em.allocB()
	}
}

func movOp(t irType) uint8 {
	switch t {
	case tNum:
		return opMovF
	case tBool:
		return opMovB
	default:
		return opMovV
	}
}

var builtin1Op = map[string]uint8{
	"abs": opAbsF, "ceil": opCeilF, "floor": opFloorF, "sqrt": opSqrtF, "log2": opLog2F,
}

var builtin2Op = map[string]uint8{
	"min": opMinF, "max": opMaxF, "pow": opPowF,
}

func (em *emitter) emitExpr(e irExpr) (int32, irType, error) {
	switch x := e.(type) {
	case irConst:
		r, t := em.constReg(x.v)
		return r, t, nil
	case irArg:
		r, ok := em.argReg[x.i]
		if !ok {
			r = em.allocF()
			em.argReg[x.i] = r
			em.p.args = append(em.p.args, argReg{reg: r, i: x.i})
		}
		return r, tNum, nil
	case irVar:
		return em.slotReg(x.slot), x.slot.t, nil
	case irFree:
		em.deps[x.idx] = true
		switch x.t {
		case tNum:
			r := em.allocF()
			em.emit(opLoadF, r, int32(x.idx), 0)
			return r, tNum, nil
		case tBool:
			r := em.allocB()
			em.emit(opLoadB, r, int32(x.idx), 0)
			return r, tBool, nil
		default:
			r := em.allocV()
			em.emit(opLoadV, r, int32(x.idx), 0)
			return r, tVal, nil
		}
	case *irUnary:
		rx, tx, err := em.emitExpr(x.x)
		if err != nil {
			return 0, 0, err
		}
		if x.op == eil.TokBang {
			b := em.coerce(rx, tx, tBool)
			r := em.allocB()
			em.emit(opNotB, r, b, 0)
			return r, tBool, nil
		}
		f := em.coerce(rx, tx, tNum)
		r := em.allocF()
		em.emit(opNegF, r, f, 0)
		return r, tNum, nil
	case *irBinary:
		rx, tx, err := em.emitExpr(x.x)
		if err != nil {
			return 0, 0, err
		}
		ry, ty, err := em.emitExpr(x.y)
		if err != nil {
			return 0, 0, err
		}
		// Eq/Neq compare any kinds (Value.Equal); everything else needs
		// nums. Coercions come after both operands are evaluated, matching
		// the interpreter's evaluate-then-typecheck order.
		switch x.op {
		case eil.TokEq, eil.TokNeq:
			op := opEqV
			if tx == tNum && ty == tNum {
				op = opEqF
			} else if tx == tBool && ty == tBool {
				op = opEqB
			}
			if op == opEqV {
				rx = em.coerce(rx, tx, tVal)
				ry = em.coerce(ry, ty, tVal)
			}
			if x.op == eil.TokNeq {
				op++ // each Ne* opcode directly follows its Eq*
			}
			r := em.allocB()
			em.emit(op, r, rx, ry)
			return r, tBool, nil
		}
		fx := em.coerce(rx, tx, tNum)
		fy := em.coerce(ry, ty, tNum)
		var op uint8
		rt := tNum
		switch x.op {
		case eil.TokPlus:
			op = opAddF
		case eil.TokMinus:
			op = opSubF
		case eil.TokStar:
			op = opMulF
		case eil.TokSlash:
			op = opDivF
		case eil.TokPercent:
			op = opModF
		case eil.TokLt:
			op, rt = opLtF, tBool
		case eil.TokLe:
			op, rt = opLeF, tBool
		case eil.TokGt:
			op, rt = opGtF, tBool
		case eil.TokGe:
			op, rt = opGeF, tBool
		default:
			return 0, 0, decline("unknown binary operator %v", x.op)
		}
		r := em.alloc(rt)
		em.emit(op, r, fx, fy)
		return r, rt, nil
	case *irCond:
		var nc bool
		rt := typeOfWalk(x, &nc)
		if rt == tUnknown {
			rt = tVal
		}
		res := em.alloc(rt)
		rc, tc, err := em.emitExpr(x.cond)
		if err != nil {
			return 0, 0, err
		}
		cb := em.coerce(rc, tc, tBool)
		j1 := em.emit(opJmpIfNot, 0, cb, 0)
		rthen, tt, err := em.emitExpr(x.then)
		if err != nil {
			return 0, 0, err
		}
		em.emit(movOp(rt), res, em.coerce(rthen, tt, rt), 0)
		j2 := em.emit(opJmp, 0, 0, 0)
		em.patchA(j1, em.here())
		rels, te, err := em.emitExpr(x.els)
		if err != nil {
			return 0, 0, err
		}
		em.emit(movOp(rt), res, em.coerce(rels, te, rt), 0)
		em.patchA(j2, em.here())
		return res, rt, nil
	case *irCall:
		if x.name == "len" {
			rx, tx, err := em.emitExpr(x.args[0])
			if err != nil {
				return 0, 0, err
			}
			r := em.allocF()
			em.emit(opLenV, r, em.coerce(rx, tx, tVal), 0)
			return r, tNum, nil
		}
		if op, ok := builtin1Op[x.name]; ok {
			rx, tx, err := em.emitExpr(x.args[0])
			if err != nil {
				return 0, 0, err
			}
			r := em.allocF()
			em.emit(op, r, em.coerce(rx, tx, tNum), 0)
			return r, tNum, nil
		}
		if op, ok := builtin2Op[x.name]; ok {
			ra, ta, err := em.emitExpr(x.args[0])
			if err != nil {
				return 0, 0, err
			}
			rb, tb, err := em.emitExpr(x.args[1])
			if err != nil {
				return 0, 0, err
			}
			fa := em.coerce(ra, ta, tNum)
			fb := em.coerce(rb, tb, tNum)
			r := em.allocF()
			em.emit(op, r, fa, fb)
			return r, tNum, nil
		}
		return 0, 0, decline("builtin %q not supported by the emitter", x.name)
	case *irField:
		rx, tx, err := em.emitExpr(x.x)
		if err != nil {
			return 0, 0, err
		}
		r := em.allocV()
		em.emit(opFieldV, r, em.coerce(rx, tx, tVal), em.name(x.name))
		return r, tVal, nil
	case *irIndex:
		rx, tx, err := em.emitExpr(x.x)
		if err != nil {
			return 0, 0, err
		}
		ri, ti, err := em.emitExpr(x.i)
		if err != nil {
			return 0, 0, err
		}
		vx := em.coerce(rx, tx, tVal)
		fi := em.coerce(ri, ti, tNum)
		r := em.allocV()
		em.emit(opIndexV, r, vx, fi)
		return r, tVal, nil
	case *irRecord:
		start := int32(len(em.p.aux))
		regs := make([]int32, len(x.vals))
		for i, v := range x.vals {
			rv, tv, err := em.emitExpr(v)
			if err != nil {
				return 0, 0, err
			}
			regs[i] = em.coerce(rv, tv, tVal)
		}
		for i := range x.vals {
			em.p.aux = append(em.p.aux, em.name(x.names[i]), regs[i])
		}
		r := em.allocV()
		em.emit(opRecordV, r, start, int32(len(x.vals)))
		return r, tVal, nil
	case *irList:
		start := int32(len(em.p.aux))
		regs := make([]int32, len(x.elems))
		for i, el := range x.elems {
			rv, tv, err := em.emitExpr(el)
			if err != nil {
				return 0, 0, err
			}
			regs[i] = em.coerce(rv, tv, tVal)
		}
		em.p.aux = append(em.p.aux, regs...)
		r := em.allocV()
		em.emit(opListV, r, start, int32(len(x.elems)))
		return r, tVal, nil
	case *irBlock:
		res := em.allocF()
		fr := &emitFrame{retReg: res}
		em.frames = append(em.frames, fr)
		if err := em.emitStmts(x.stmts); err != nil {
			return 0, 0, err
		}
		// The checker guarantees every path returns; keep a guard that
		// mirrors the interpreter's "no return executed" failure.
		em.emit(opFail, em.msg("no return executed"), 0, 0)
		end := em.here()
		for _, pos := range fr.retPatches {
			em.p.code[pos].C = end
		}
		em.frames = em.frames[:len(em.frames)-1]
		return res, tNum, nil
	case *irSteps:
		return em.emitExpr(x.x)
	default:
		return 0, 0, decline("expression %T escaped specialization", e)
	}
}

func (em *emitter) emitStmts(stmts []irStmt) error {
	for _, st := range stmts {
		switch s := st.(type) {
		case *irLet:
			if _, ok := propagated(s.init); ok && !s.slot.mutated {
				continue // propagated: every read already folded
			}
			nF := em.nF
			r, t, err := em.emitExpr(s.init)
			if err != nil {
				return err
			}
			if !s.slot.mutated && t == tNum && s.slot.t == tNum && r >= nF {
				// The init landed in a register this expression allocated
				// and nothing else writes; a never-reassigned slot can
				// simply be that register. With argument arithmetic left
				// to the VM these copies were a quarter of its work.
				s.slot.reg = r
				continue
			}
			em.emit(movOp(s.slot.t), em.slotReg(s.slot), em.coerce(r, t, s.slot.t), 0)
		case *irAssign:
			r, t, err := em.emitExpr(s.x)
			if err != nil {
				return err
			}
			em.emit(movOp(s.slot.t), em.slotReg(s.slot), em.coerce(r, t, s.slot.t), 0)
		case *irIf:
			if b, ok := constBool(s.cond); ok {
				// Dead-branch elimination: the interpreter would evaluate
				// the constant condition and never enter the other arm, so
				// its code (and its ECV reads) is simply not emitted.
				taken := s.then
				if !b {
					taken = s.els
				}
				if err := em.emitStmts(taken); err != nil {
					return err
				}
				continue
			}
			rc, tc, err := em.emitExpr(s.cond)
			if err != nil {
				return err
			}
			cb := em.coerce(rc, tc, tBool)
			j1 := em.emit(opJmpIfNot, 0, cb, 0)
			if err := em.emitStmts(s.then); err != nil {
				return err
			}
			j2 := em.emit(opJmp, 0, 0, 0)
			em.patchA(j1, em.here())
			if err := em.emitStmts(s.els); err != nil {
				return err
			}
			em.patchA(j2, em.here())
		case *irFor:
			rf, tf, err := em.emitExpr(s.from)
			if err != nil {
				return err
			}
			rt, tt, err := em.emitExpr(s.to)
			if err != nil {
				return err
			}
			ff := em.coerce(rf, tf, tNum)
			ft := em.coerce(rt, tt, tNum)
			iv := em.slotReg(s.slot)
			em.emit(opCeilRaw, iv, ff, 0)
			top := em.here()
			cmp := em.allocB()
			em.emit(opLtF, cmp, iv, ft)
			jend := em.emit(opJmpIfNot, 0, cmp, 0)
			if err := em.emitStmts(s.body); err != nil {
				return err
			}
			em.emit(opAddF, iv, iv, em.fConst(1))
			em.emit(opJmp, top, 0, 0)
			em.patchA(jend, em.here())
		case *irReturn:
			r, t, err := em.emitExpr(s.x)
			if err != nil {
				return err
			}
			var src int32
			switch t {
			case tNum:
				src = r
			case tVal:
				src = em.allocF()
				em.emit(opNumV, src, r, 0)
			default:
				em.emit(opFail, em.msg("returned bool, want num (joules)"), 0, 0)
				src = em.allocF()
			}
			fr := em.frames[len(em.frames)-1]
			pos := em.emit(opFrameRet, fr.retReg, src, 0)
			fr.retPatches = append(fr.retPatches, pos)
		default:
			return decline("unknown statement %T in emit", st)
		}
	}
	return nil
}
