package opt

import (
	"fmt"
	"sort"
	"strings"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
)

// DumpMethod renders the compilation pipeline for one method, pass by
// pass: the lowered (fully inlined) IR, the constant-folded IR, what the
// dependence pass decided about each parameter, the IR specialized for
// the given arguments with every ECV free (control arguments folded in,
// data arguments left as arg<i>), and the final instruction listing with
// its register constants, argument registers and dependency set. Methods
// outside the compiled subset report the decline instead.
func DumpMethod(root *core.Interface, method string, args []core.Value) (string, error) {
	m := root.Method(method)
	if m == nil {
		return "", fmt.Errorf("opt: interface %s has no method %q", root.Name(), method)
	}
	fn, ok := m.Source.(*eil.FuncDecl)
	if !ok || fn == nil {
		return "", fmt.Errorf("opt: method %q has no EIL source (Go-native); nothing to compile", method)
	}
	if len(fn.Params) != 0 && len(args) != len(fn.Params) {
		return "", fmt.Errorf("opt: method %q takes %d args, got %d", method, len(fn.Params), len(args))
	}

	var b strings.Builder
	declined := func(err error) (string, error) {
		fmt.Fprintf(&b, "declined: %v\n", err)
		return b.String(), nil
	}
	fmt.Fprintf(&b, "== %s: lowered (inlined) ==\n", method)
	blk, err := lowerSource(root, fn)
	if err != nil {
		return declined(err)
	}
	writeStmts(&b, blk.stmts, 1)

	fmt.Fprintf(&b, "\n== %s: folded ==\n", method)
	folded := foldLiterals(blk)
	writeStmts(&b, folded.stmts, 1)

	p := newProgram(method, len(fn.Params), folded)
	fmt.Fprintf(&b, "\n== %s: parameters ==\n", method)
	for i, name := range fn.Params {
		fmt.Fprintf(&b, "  arg%d %s: %s\n", i, name, p.params[i])
	}
	if len(fn.Params) == 0 {
		fmt.Fprintf(&b, "  none\n")
	}

	fmt.Fprintf(&b, "\n== %s: specialized (all ECVs free) ==\n", method)
	free := root.TransitiveECVs()
	spec, err := p.partialEval(args, nil, free)
	if err != nil {
		return declined(err)
	}
	writeStmts(&b, spec.stmts, 1)

	fmt.Fprintf(&b, "\n== %s: code ==\n", method)
	if err := checkFuel(spec); err != nil {
		return declined(err)
	}
	code, deps, err := emitProgram(spec, method)
	if err != nil {
		return declined(err)
	}
	writeCode(&b, code, deps, free)
	return b.String(), nil
}

func writeStmts(b *strings.Builder, stmts []irStmt, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, st := range stmts {
		switch s := st.(type) {
		case *irLet:
			fmt.Fprintf(b, "%slet %s = %s\n", ind, slotName(s.slot), exprString(s.init))
		case *irAssign:
			fmt.Fprintf(b, "%s%s = %s\n", ind, slotName(s.slot), exprString(s.x))
		case *irIf:
			fmt.Fprintf(b, "%sif %s {\n", ind, exprString(s.cond))
			writeStmts(b, s.then, depth+1)
			if len(s.els) > 0 {
				fmt.Fprintf(b, "%s} else {\n", ind)
				writeStmts(b, s.els, depth+1)
			}
			fmt.Fprintf(b, "%s}\n", ind)
		case *irFor:
			fmt.Fprintf(b, "%sfor %s in %s .. %s {\n", ind, slotName(s.slot), exprString(s.from), exprString(s.to))
			writeStmts(b, s.body, depth+1)
			fmt.Fprintf(b, "%s}\n", ind)
		case *irReturn:
			fmt.Fprintf(b, "%sreturn %s\n", ind, exprString(s.x))
		}
	}
}

func slotName(s *irSlot) string { return fmt.Sprintf("%s#%d", s.name, s.id) }

func exprString(e irExpr) string {
	switch x := e.(type) {
	case irConst:
		return x.v.String()
	case irArg:
		return fmt.Sprintf("arg%d", x.i)
	case irVar:
		return slotName(x.slot)
	case irECV:
		return fmt.Sprintf("ecv(%s)", x.qn)
	case irFree:
		return fmt.Sprintf("free%d(%s)", x.idx, x.qn)
	case *irUnary:
		return fmt.Sprintf("(%s %s)", x.op, exprString(x.x))
	case *irBinary:
		return fmt.Sprintf("(%s %s %s)", exprString(x.x), x.op, exprString(x.y))
	case *irCond:
		return fmt.Sprintf("(%s ? %s : %s)", exprString(x.cond), exprString(x.then), exprString(x.els))
	case *irCall:
		parts := make([]string, len(x.args))
		for i, a := range x.args {
			parts[i] = exprString(a)
		}
		return fmt.Sprintf("%s(%s)", x.name, strings.Join(parts, ", "))
	case *irField:
		return fmt.Sprintf("%s.%s", exprString(x.x), x.name)
	case *irIndex:
		return fmt.Sprintf("%s[%s]", exprString(x.x), exprString(x.i))
	case *irRecord:
		parts := make([]string, len(x.vals))
		for i := range x.vals {
			parts[i] = fmt.Sprintf("%s: %s", x.names[i], exprString(x.vals[i]))
		}
		return "{" + strings.Join(parts, ", ") + "}"
	case *irList:
		parts := make([]string, len(x.elems))
		for i, el := range x.elems {
			parts[i] = exprString(el)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case *irBlock:
		var b strings.Builder
		b.WriteString("block {\n")
		writeStmts(&b, x.stmts, 2)
		b.WriteString("  }")
		return b.String()
	case *irSteps:
		return exprString(x.x)
	default:
		return fmt.Sprintf("%T", e)
	}
}

func writeCode(b *strings.Builder, p *progCode, deps map[int]bool, free []core.QualifiedECV) {
	fmt.Fprintf(b, "registers: %d float, %d bool, %d value\n",
		len(p.initF), len(p.initB), len(p.initV))
	if len(p.args) > 0 {
		fmt.Fprintf(b, "arguments (written per request):\n")
		for _, a := range p.args {
			fmt.Fprintf(b, "  f%d = arg%d\n", a.reg, a.i)
		}
	}
	if len(p.constsF) > 0 {
		fmt.Fprintf(b, "float constants:\n")
		for _, c := range p.constsF {
			fmt.Fprintf(b, "  f%d = %v\n", c.reg, c.v)
		}
	}
	if len(p.constsB) > 0 {
		fmt.Fprintf(b, "bool constants:\n")
		for _, c := range p.constsB {
			fmt.Fprintf(b, "  b%d = %v\n", c.reg, c.v)
		}
	}
	if len(p.constsV) > 0 {
		fmt.Fprintf(b, "value constants:\n")
		for _, c := range p.constsV {
			fmt.Fprintf(b, "  v%d = %s\n", c.reg, c.v.String())
		}
	}
	ds := make([]int, 0, len(deps))
	for d := range deps {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	if len(ds) == 0 {
		fmt.Fprintf(b, "deps: none (fully collapsed: one evaluation covers every assignment)\n")
	} else {
		names := make([]string, len(ds))
		for i, d := range ds {
			names[i] = free[d].QualifiedName()
		}
		fmt.Fprintf(b, "deps: %s\n", strings.Join(names, ", "))
	}
	fmt.Fprintf(b, "prefix: %d of %d instructions run once per request, at bind\n",
		prefixLen(p.code), len(p.code))
	for pc, in := range p.code {
		fmt.Fprintf(b, "%4d  %-9s", pc, opNames[in.Op])
		switch in.Op {
		case opJmp:
			fmt.Fprintf(b, "-> %d", in.A)
		case opJmpIfNot:
			fmt.Fprintf(b, "b%d -> %d", in.B, in.A)
		case opMovF, opNegF, opCeilRaw, opAbsF, opCeilF, opFloorF, opSqrtF, opLog2F:
			fmt.Fprintf(b, "f%d <- f%d", in.A, in.B)
		case opMovB, opNotB:
			fmt.Fprintf(b, "b%d <- b%d", in.A, in.B)
		case opMovV:
			fmt.Fprintf(b, "v%d <- v%d", in.A, in.B)
		case opAddF, opSubF, opMulF, opDivF, opModF, opMinF, opMaxF, opPowF:
			fmt.Fprintf(b, "f%d <- f%d, f%d", in.A, in.B, in.C)
		case opLtF, opLeF, opGtF, opGeF, opEqF, opNeF:
			fmt.Fprintf(b, "b%d <- f%d, f%d", in.A, in.B, in.C)
		case opEqB, opNeB:
			fmt.Fprintf(b, "b%d <- b%d, b%d", in.A, in.B, in.C)
		case opEqV, opNeV:
			fmt.Fprintf(b, "b%d <- v%d, v%d", in.A, in.B, in.C)
		case opLenV, opNumV:
			fmt.Fprintf(b, "f%d <- v%d", in.A, in.B)
		case opBoolV:
			fmt.Fprintf(b, "b%d <- v%d", in.A, in.B)
		case opBoxF:
			fmt.Fprintf(b, "v%d <- f%d", in.A, in.B)
		case opBoxB:
			fmt.Fprintf(b, "v%d <- b%d", in.A, in.B)
		case opFieldV:
			fmt.Fprintf(b, "v%d <- v%d.%s", in.A, in.B, p.names[in.C])
		case opIndexV:
			fmt.Fprintf(b, "v%d <- v%d[f%d]", in.A, in.B, in.C)
		case opRecordV, opListV:
			fmt.Fprintf(b, "v%d <- aux[%d:%d]", in.A, in.B, in.C)
		case opLoadF:
			fmt.Fprintf(b, "f%d <- ecv %s", in.A, free[in.B].QualifiedName())
		case opLoadB:
			fmt.Fprintf(b, "b%d <- ecv %s", in.A, free[in.B].QualifiedName())
		case opLoadV:
			fmt.Fprintf(b, "v%d <- ecv %s", in.A, free[in.B].QualifiedName())
		case opFrameRet:
			fmt.Fprintf(b, "f%d <- f%d, -> %d", in.A, in.B, in.C)
		case opFail:
			fmt.Fprintf(b, "%q", p.msgs[in.A])
		case opEnd:
			fmt.Fprintf(b, "f%d", in.A)
		}
		b.WriteByte('\n')
	}
}
