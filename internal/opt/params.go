package opt

import "energyclarity/internal/eil"

// paramUse classifies one method parameter, once per compiled program. A
// data parameter flows only through + - * / %, unary minus, the num
// builtins and let/assign/inlined-parameter slots into the returned
// joules: no fold decision — dead branch, loop trip count, fuel bound,
// dependency set — can depend on its value, so one emitted program serves
// every num passed for it. Anything else is control, named by the first
// use that made it so, and specializes by value.
type paramUse uint8

const (
	useData paramUse = iota
	useBranch
	useLoopBound
	useComparison
	useNonNum
	useUntracked
)

var paramUseNames = [...]string{
	useBranch:     "branch condition",
	useLoopBound:  "loop bound",
	useComparison: "comparison",
	useNonNum:     "non-num use",
	useUntracked:  "more than 64 parameters",
}

func (u paramUse) String() string {
	if u == useData {
		return "data"
	}
	return "control (" + paramUseNames[u] + ")"
}

// paramSet is a set of parameter indexes below 64.
type paramSet uint64

// classifier is the dependence pass behind classifyParams: flow-insensitive
// taint from parameters through slots, iterated to a fixpoint because a
// loop body can read a slot assigned further down. There are no implicit
// flows to track — a parameter that reaches a condition is control already.
type classifier struct {
	uses    []paramUse
	slots   map[*irSlot]paramSet
	rets    []paramSet // per open frame: parameters reaching its returns
	changed bool
}

// classifyParams runs the pass over a method's (compile-time folded) IR.
// It is conservative: a parameter is data only if every path from it to
// the result is arithmetic.
func classifyParams(blk *irBlock, nParams int) []paramUse {
	c := &classifier{uses: make([]paramUse, nParams), slots: map[*irSlot]paramSet{}}
	for i := 64; i < nParams; i++ {
		c.uses[i] = useUntracked
	}
	for {
		c.changed = false
		c.expr(blk)
		if !c.changed {
			return c.uses
		}
	}
}

// control marks every parameter in s as control, keeping an earlier reason.
func (c *classifier) control(s paramSet, why paramUse) {
	for i := 0; s != 0; i, s = i+1, s>>1 {
		if s&1 != 0 && c.uses[i] == useData {
			c.uses[i] = why
			c.changed = true
		}
	}
}

func (c *classifier) flow(slot *irSlot, s paramSet) {
	if old := c.slots[slot]; old|s != old {
		c.slots[slot] = old | s
		c.changed = true
	}
}

func (c *classifier) stmts(stmts []irStmt) {
	for _, st := range stmts {
		switch s := st.(type) {
		case *irLet:
			c.flow(s.slot, c.expr(s.init))
		case *irAssign:
			c.flow(s.slot, c.expr(s.x))
		case *irIf:
			c.control(c.expr(s.cond), useBranch)
			c.stmts(s.then)
			c.stmts(s.els)
		case *irFor:
			c.control(c.expr(s.from)|c.expr(s.to), useLoopBound)
			c.stmts(s.body)
		case *irReturn:
			c.rets[len(c.rets)-1] |= c.expr(s.x)
		}
	}
}

// expr returns the parameters whose values can reach e's value, marking
// control every parameter that reaches a use other than num arithmetic.
func (c *classifier) expr(e irExpr) paramSet {
	switch x := e.(type) {
	case irArg:
		if x.i < 64 {
			return 1 << x.i
		}
		return 0
	case irVar:
		return c.slots[x.slot]
	case *irUnary:
		s := c.expr(x.x)
		if x.op != eil.TokMinus {
			c.control(s, useNonNum)
		}
		return s
	case *irBinary:
		s := c.expr(x.x) | c.expr(x.y)
		switch x.op {
		case eil.TokPlus, eil.TokMinus, eil.TokStar, eil.TokSlash, eil.TokPercent:
		default:
			c.control(s, useComparison)
		}
		return s
	case *irCond:
		s := c.expr(x.cond) | c.expr(x.then) | c.expr(x.els)
		c.control(s, useBranch)
		return s
	case *irCall:
		var s paramSet
		for _, a := range x.args {
			s |= c.expr(a)
		}
		_, num1 := builtin1Op[x.name]
		_, num2 := builtin2Op[x.name]
		if !num1 && !num2 {
			c.control(s, useNonNum) // len
		}
		return s
	case *irField:
		s := c.expr(x.x)
		c.control(s, useNonNum)
		return s
	case *irIndex:
		s := c.expr(x.x) | c.expr(x.i)
		c.control(s, useNonNum)
		return s
	case *irRecord:
		var s paramSet
		for _, v := range x.vals {
			s |= c.expr(v)
		}
		c.control(s, useNonNum)
		return s
	case *irList:
		var s paramSet
		for _, el := range x.elems {
			s |= c.expr(el)
		}
		c.control(s, useNonNum)
		return s
	case *irBlock:
		c.rets = append(c.rets, 0)
		c.stmts(x.stmts)
		s := c.rets[len(c.rets)-1]
		c.rets = c.rets[:len(c.rets)-1]
		return s
	case *irSteps:
		return c.expr(x.x)
	default: // irConst, irECV, irFree
		return 0
	}
}
