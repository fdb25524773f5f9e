package eil

import (
	"fmt"
	"strconv"
	"strings"
)

// Print renders a parsed file back to canonical EIL source. Printing then
// re-parsing yields a structurally identical file (round-trip property,
// verified in tests); the extraction toolchain uses Print to emit
// machine-derived interfaces in the same language humans write.
func Print(f *File) string {
	var b strings.Builder
	for i, id := range f.Interfaces {
		if i > 0 {
			b.WriteByte('\n')
		}
		printInterface(&b, id)
	}
	return b.String()
}

// quote writes s as an EIL string literal. The lexer knows only the \n,
// \t, \" and \\ escapes and takes every other byte as itself, so those
// four are all that is escaped (strconv.Quote's \x, \u and \r would not
// parse back).
func quote(s string) string { return `"` + quoter.Replace(s) + `"` }

var quoter = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`, "\t", `\t`)

// PrintInterface renders one interface declaration.
func PrintInterface(id *InterfaceDecl) string {
	var b strings.Builder
	printInterface(&b, id)
	return b.String()
}

func printInterface(b *strings.Builder, id *InterfaceDecl) {
	fmt.Fprintf(b, "interface %s", id.Name)
	if id.Doc != "" {
		fmt.Fprintf(b, " %s", quote(id.Doc))
	}
	b.WriteString(" {\n")
	for _, e := range id.ECVs {
		fmt.Fprintf(b, "  ecv %s: %s", e.Name, distString(e.Dist))
		if e.Doc != "" {
			fmt.Fprintf(b, " %s", quote(e.Doc))
		}
		b.WriteByte('\n')
	}
	for _, u := range id.Uses {
		fmt.Fprintf(b, "  uses %s: %s\n", u.Local, u.Iface)
	}
	for _, fn := range id.Funcs {
		fmt.Fprintf(b, "  func %s(%s)", fn.Name, strings.Join(fn.Params, ", "))
		if fn.Doc != "" {
			fmt.Fprintf(b, " %s", quote(fn.Doc))
		}
		b.WriteByte(' ')
		printBlock(b, fn.Body, 1)
		b.WriteByte('\n')
	}
	b.WriteString("}\n")
}

func distString(d *DistExpr) string {
	switch d.Kind {
	case DistBernoulli:
		return fmt.Sprintf("bernoulli(%s)", ExprString(d.Args[0]))
	case DistFixed:
		return fmt.Sprintf("fixed(%s)", ExprString(d.Args[0]))
	case DistChoice:
		var parts []string
		for i := range d.Values {
			parts = append(parts, fmt.Sprintf("%s: %s",
				ExprString(d.Values[i]), ExprString(d.Probs[i])))
		}
		return "choice { " + strings.Join(parts, ", ") + " }"
	default:
		return "?dist"
	}
}

func printBlock(b *strings.Builder, blk *Block, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString("{\n")
	for _, st := range blk.Stmts {
		b.WriteString(indent)
		b.WriteString("  ")
		printStmt(b, st, depth+1)
		b.WriteByte('\n')
	}
	b.WriteString(indent)
	b.WriteString("}")
}

func printStmt(b *strings.Builder, st Stmt, depth int) {
	switch s := st.(type) {
	case *LetStmt:
		fmt.Fprintf(b, "let %s = %s", s.Name, ExprString(s.Init))
	case *AssignStmt:
		fmt.Fprintf(b, "%s = %s", s.Name, ExprString(s.Expr))
	case *IfStmt:
		fmt.Fprintf(b, "if %s ", ExprString(s.Cond))
		printBlock(b, s.Then, depth)
		if s.Else != nil {
			b.WriteString(" else ")
			// Collapse else { if ... } chains back to "else if".
			if len(s.Else.Stmts) == 1 {
				if inner, ok := s.Else.Stmts[0].(*IfStmt); ok {
					printStmt(b, inner, depth)
					return
				}
			}
			printBlock(b, s.Else, depth)
		}
	case *ForStmt:
		fmt.Fprintf(b, "for %s in %s .. %s ", s.Var, ExprString(s.From), ExprString(s.To))
		printBlock(b, s.Body, depth)
	case *ReturnStmt:
		fmt.Fprintf(b, "return %s", ExprString(s.Expr))
	}
}

// opPrec returns the binding strength of a binary operator; higher binds
// tighter. Mirrors the parser's grammar levels.
func opPrec(op TokKind) int {
	switch op {
	case TokOrOr:
		return 1
	case TokAndAnd:
		return 2
	case TokEq, TokNeq:
		return 3
	case TokLt, TokLe, TokGt, TokGe:
		return 4
	case TokPlus, TokMinus:
		return 5
	case TokStar, TokSlash, TokPercent:
		return 6
	default:
		return 7
	}
}

func opText(op TokKind) string {
	switch op {
	case TokOrOr:
		return "||"
	case TokAndAnd:
		return "&&"
	case TokEq:
		return "=="
	case TokNeq:
		return "!="
	case TokLt:
		return "<"
	case TokLe:
		return "<="
	case TokGt:
		return ">"
	case TokGe:
		return ">="
	case TokPlus:
		return "+"
	case TokMinus:
		return "-"
	case TokStar:
		return "*"
	case TokSlash:
		return "/"
	case TokPercent:
		return "%"
	case TokBang:
		return "!"
	default:
		return "?"
	}
}

// ExprString renders an expression with minimal parentheses.
func ExprString(e Expr) string {
	var b strings.Builder
	printExpr(&b, e, 0)
	return b.String()
}

func printExpr(b *strings.Builder, e Expr, parentPrec int) {
	switch x := e.(type) {
	case *NumLit:
		if x.Text != "" {
			b.WriteString(x.Text)
		} else {
			b.WriteString(strconv.FormatFloat(x.Val, 'g', -1, 64))
		}
	case *BoolLit:
		b.WriteString(strconv.FormatBool(x.Val))
	case *StrLit:
		b.WriteString(quote(x.Val))
	case *Ident:
		b.WriteString(x.Name)
	case *FieldExpr:
		printExpr(b, x.X, 8)
		b.WriteByte('.')
		b.WriteString(x.Name)
	case *IndexExpr:
		printExpr(b, x.X, 8)
		b.WriteByte('[')
		printExpr(b, x.I, 0)
		b.WriteByte(']')
	case *UnaryExpr:
		b.WriteString(opText(x.Op))
		printExpr(b, x.X, 7)
	case *BinaryExpr:
		prec := opPrec(x.Op)
		if prec < parentPrec {
			b.WriteByte('(')
		}
		printExpr(b, x.X, prec)
		b.WriteByte(' ')
		b.WriteString(opText(x.Op))
		b.WriteByte(' ')
		printExpr(b, x.Y, prec+1)
		if prec < parentPrec {
			b.WriteByte(')')
		}
	case *CallExpr:
		if x.Target != "" {
			b.WriteString(x.Target)
			b.WriteByte('.')
		}
		b.WriteString(x.Name)
		b.WriteByte('(')
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, a, 0)
		}
		b.WriteByte(')')
	case *RecordLit:
		b.WriteByte('{')
		for i, n := range x.Names {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(n)
			b.WriteString(": ")
			printExpr(b, x.Values[i], 0)
		}
		b.WriteByte('}')
	case *ListLit:
		b.WriteByte('[')
		for i, el := range x.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			printExpr(b, el, 0)
		}
		b.WriteByte(']')
	}
}
