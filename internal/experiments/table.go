// Package experiments implements every experiment in DESIGN.md §3 — the
// paper's Table 1 and Figures 1-2, the §1 motivating scenarios (E1-E3),
// the §4 workflows (E4-E5), the §6 open questions (E6-E7), and the design
// ablations (A1-A3). Each experiment returns both structured results (for
// tests and benchmarks) and a formatted Table (for cmd/ebench and
// EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint renders the table as aligned text. Widths count runes, so a
// column holding "µs" or "⊑" lines up with its ASCII neighbours.
func (t *Table) Fprint(w io.Writer) error {
	width := utf8.RuneCountInString
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = width(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && width(cell) > widths[i] {
				widths[i] = width(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	line := func(cells []string) {
		var l strings.Builder
		for i, c := range cells {
			if i > 0 {
				l.WriteString("  ")
			}
			l.WriteString(c)
			if i < len(widths) {
				l.WriteString(strings.Repeat(" ", widths[i]-width(c)))
			}
		}
		b.WriteString(strings.TrimRight(l.String(), " ") + "\n")
	}
	line(t.Header)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total-2) + "\n")
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: " + n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown renders the table as GitHub Markdown: the ID and title in bold,
// the rows as a pipe table ("|" in a cell escaped), and one list item per
// note. EXPERIMENTS.md and README.md hold this text verbatim between
// <!-- ebench:ID --> and <!-- /ebench --> markers, and the experiments'
// test compares it byte for byte.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "**%s: %s**\n\n", t.ID, t.Title)
	row := func(cells []string) {
		for _, c := range cells {
			b.WriteString("| " + strings.ReplaceAll(c, "|", `\|`) + " ")
		}
		b.WriteString("|\n")
	}
	row(t.Header)
	b.WriteString(strings.Repeat("|---", len(t.Header)) + "|\n")
	for _, r := range t.Rows {
		row(r)
	}
	if len(t.Notes) > 0 {
		b.WriteString("\n")
	}
	for _, n := range t.Notes {
		b.WriteString("- " + n + "\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }
func f3(x float64) string  { return fmt.Sprintf("%.3g", x) }
func cell(v interface{}) string {
	return fmt.Sprintf("%v", v)
}
