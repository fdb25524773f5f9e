package experiments

import (
	"bytes"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestTableFprintAlignment(t *testing.T) {
	tab := &Table{
		ID:     "X1",
		Title:  "test table",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}, {"longer-cell", "2"}, {"µs ⊑ 1.3×", "3"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tab.Fprint(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if !strings.HasPrefix(lines[0], "== X1: test table ==") {
		t.Fatalf("title line %q", lines[0])
	}
	// Columns must align on screen: the "value" entries start at the same
	// rune offset, the multibyte row's included.
	col := func(line, cell string) int {
		return utf8.RuneCountInString(line[:strings.LastIndex(line, cell)])
	}
	if c1, c2, c3 := col(lines[3], "1"), col(lines[4], "2"), col(lines[5], "3"); c1 != c2 || c2 != c3 {
		t.Fatalf("columns misaligned: %d, %d, %d\n%s", c1, c2, c3, out)
	}
	if !strings.Contains(out, "note: a note") {
		t.Fatalf("note missing:\n%s", out)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{
		ID:     "X1",
		Title:  "test table",
		Header: []string{"local cache", "P(local|hit)"},
		Rows:   [][]string{{"16", "0.594"}, {"a|b", ""}},
		Notes:  []string{"first note", "second note"},
	}
	var buf bytes.Buffer
	if err := tab.Markdown(&buf); err != nil {
		t.Fatal(err)
	}
	want := `**X1: test table**

| local cache | P(local\|hit) |
|---|---|
| 16 | 0.594 |
| a\|b |  |

- first note
- second note
`
	if got := buf.String(); got != want {
		t.Fatalf("Markdown:\n%s\nwant:\n%s", got, want)
	}
	for i, line := range strings.Split(want, "\n") {
		if strings.TrimRight(line, " ") != line {
			t.Errorf("line %d has trailing spaces: %q", i+1, line)
		}
	}
}

// TestDocBlocks: a block that matches its table passes; editing one cell
// fails and names the experiment, row and column; a block for an unknown
// ID and an unterminated block fail to parse.
func TestDocBlocks(t *testing.T) {
	tab := &Table{
		ID:     "T1",
		Title:  "test table",
		Header: []string{"GPU", "Average error", "Max error"},
		Rows:   [][]string{{"RTX4090", "0.76%", "0.79%"}, {"RTX3070", "5.85%", "6.24%"}},
		Notes:  []string{"a note"},
	}
	var md bytes.Buffer
	if err := tab.Markdown(&md); err != nil {
		t.Fatal(err)
	}
	doc := "# Results\n\nprose\n<!-- ebench:T1 -->\n" + md.String() + "<!-- /ebench -->\nmore prose\n"
	bs, err := parseBlocks("DOC.md", doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 1 || bs[0].id != "T1" || bs[0].at != "DOC.md:4" {
		t.Fatalf("blocks = %+v", bs)
	}
	if msg := blockDiff(tab, bs[0].text); msg != "" {
		t.Fatalf("unedited block differs: %s", msg)
	}

	edited, err := parseBlocks("DOC.md", strings.Replace(doc, "| 6.24% |", "| 6.25% |", 1))
	if err != nil {
		t.Fatal(err)
	}
	msg := blockDiff(tab, edited[0].text)
	for _, want := range []string{"T1", "row 2 (RTX3070)", `column "Max error"`, `"6.25%"`, `"6.24%"`} {
		if !strings.Contains(msg, want) {
			t.Errorf("edited cell reported as %q, want it to name %s", msg, want)
		}
	}

	for _, bad := range []string{
		"<!-- ebench:Z9 -->\n" + md.String() + "<!-- /ebench -->\n",
		"<!-- ebench:T1 -->\n" + md.String(),
		md.String() + "<!-- /ebench -->\n",
	} {
		if _, err := parseBlocks("DOC.md", bad); err == nil {
			t.Errorf("malformed doc accepted:\n%s", bad)
		}
	}
}

func TestHelpers(t *testing.T) {
	if pct(0.1234) != "12.34%" {
		t.Fatalf("pct = %q", pct(0.1234))
	}
	if f3(1234.5) != "1.23e+03" {
		t.Fatalf("f3 = %q", f3(1234.5))
	}
	if cell(42) != "42" {
		t.Fatalf("cell = %q", cell(42))
	}
}
