package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docFiles are the documents that hold ebench's tables verbatim, relative
// to the repository root.
var docFiles = []string{"EXPERIMENTS.md", "README.md"}

// A block is the text between <!-- ebench:ID --> and <!-- /ebench --> in a
// document: what `ebench -experiment <id> -md` prints.
type block struct {
	at   string // file:line of the opening marker
	id   string
	text string
}

const (
	blockOpen  = "<!-- ebench:"
	blockClose = "<!-- /ebench -->"
)

// docBlocks reads every document in docFiles and returns its blocks by
// experiment ID, failing the test on a malformed marker.
func docBlocks(t *testing.T) map[string][]block {
	t.Helper()
	byID := map[string][]block{}
	for _, name := range docFiles {
		doc, err := os.ReadFile(filepath.Join("..", "..", name))
		if err != nil {
			t.Fatal(err)
		}
		bs, err := parseBlocks(name, string(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range bs {
			byID[b.id] = append(byID[b.id], b)
		}
	}
	return byID
}

// parseBlocks returns the blocks of one document. A block for an ID that is
// not in All, an opening marker without its close and a close without an
// opening marker are errors.
func parseBlocks(name, doc string) ([]block, error) {
	known := map[string]bool{}
	for _, e := range All {
		known[e.ID] = true
	}
	var (
		out  []block
		cur  *block
		body strings.Builder
	)
	for i, line := range strings.SplitAfter(doc, "\n") {
		at := fmt.Sprintf("%s:%d", name, i+1)
		marker := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(marker, blockOpen):
			if cur != nil {
				return nil, fmt.Errorf("%s: block opened inside the %s block of %s", at, cur.id, cur.at)
			}
			id := strings.TrimSuffix(strings.TrimPrefix(marker, blockOpen), " -->")
			if !known[id] {
				return nil, fmt.Errorf("%s: block for %q, which is not an experiment in All", at, id)
			}
			cur = &block{at: at, id: id}
			body.Reset()
		case marker == blockClose:
			if cur == nil {
				return nil, fmt.Errorf("%s: %s without an opening marker", at, blockClose)
			}
			cur.text = body.String()
			out = append(out, *cur)
			cur = nil
		case cur != nil:
			body.WriteString(line)
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("%s: the %s block is never closed with %s", cur.at, cur.id, blockClose)
	}
	return out, nil
}

// blockDiff returns "" when doc is exactly tab's Markdown, and otherwise
// names the first difference: the cell by row and column when a table row
// differs, else the line.
func blockDiff(tab *Table, doc string) string {
	var buf bytes.Buffer
	if err := tab.Markdown(&buf); err != nil {
		return err.Error()
	}
	want := buf.String()
	if doc == want {
		return ""
	}
	const firstRow = 4 // title, blank, header, separator
	wl, dl := strings.Split(want, "\n"), strings.Split(doc, "\n")
	for i := 0; i < max(len(wl), len(dl)); i++ {
		w, d := lineAt(wl, i), lineAt(dl, i)
		if w == d {
			continue
		}
		if r := i - firstRow; r >= 0 && r < len(tab.Rows) && i < len(dl) {
			wc, dc := mdCells(w), mdCells(d)
			for j := 0; j < max(len(wc), len(dc)); j++ {
				if c := lineAt(wc, j); c != lineAt(dc, j) {
					col := fmt.Sprintf("%d", j+1)
					if j < len(tab.Header) {
						col = fmt.Sprintf("%q", tab.Header[j])
					}
					return fmt.Sprintf("%s: row %d (%s), column %s: the doc has %q, ebench prints %q",
						tab.ID, r+1, tab.Rows[r][0], col, lineAt(dc, j), c)
				}
			}
		}
		return fmt.Sprintf("%s: line %d of the block: the doc has %q, ebench prints %q", tab.ID, i+1, d, w)
	}
	return tab.ID + ": the block differs from ebench's Markdown"
}

func lineAt(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<none>"
}

// mdCells splits one Markdown table row into its (still escaped) cells.
func mdCells(line string) []string {
	line = strings.TrimSuffix(strings.TrimPrefix(line, "| "), " |")
	return strings.Split(line, " | ")
}

// commandDocs are the documents whose quoted commands TestDocCommands
// checks, as filepath.Glob patterns relative to the repository root.
var commandDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md", ".claude/skills/verify/SKILL.md"}

// A snippet is code a document quotes: one line of a fenced block, or one
// code span outside them, with the file:line it starts on.
type snippet struct {
	at   string
	text string
}

// codeSnippets returns the snippets of one document. A code span may wrap
// lines but not paragraphs; the documents use single backticks only.
func codeSnippets(name, doc string) []snippet {
	var (
		out   []snippet
		fence bool
		para  []string
		first int // line number of para[0]
	)
	flush := func() {
		parts := strings.Split(strings.Join(para, "\n"), "`")
		line := first
		for i, part := range parts {
			if i%2 == 1 && i < len(parts)-1 {
				out = append(out, snippet{fmt.Sprintf("%s:%d", name, line), part})
			}
			line += strings.Count(part, "\n")
		}
		para = para[:0]
	}
	for i, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(line), "```"):
			flush()
			fence = !fence
		case fence:
			out = append(out, snippet{fmt.Sprintf("%s:%d", name, i+1), line})
		case strings.TrimSpace(line) == "":
			flush()
		default:
			if len(para) == 0 {
				first = i + 1
			}
			para = append(para, line)
		}
	}
	flush()
	return out
}

var makeTarget = regexp.MustCompile(`(?m)^([A-Za-z][\w.-]*):`)

// commandErrors returns one error per command in s that names something
// missing: a `go run|test|build|vet` package without Go files, a make
// target the Makefile does not define, an ebench experiment not in All
// (matched case-insensitively, as ebench matches).
func commandErrors(root string, targets map[string]bool, s snippet) []string {
	var errs []string
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf("%s: %s", s.at, fmt.Sprintf(format, args...)))
	}
	words := strings.Fields(s.text)
	for i, w := range words {
		// The words of the command w starts, up to a shell separator or comment.
		var args []string
		for _, a := range words[i+1:] {
			if a == "&&" || a == "||" || a == ";" || a == "|" || a == "&" || strings.HasPrefix(a, "#") {
				break
			}
			args = append(args, a)
		}
		switch {
		case w == "go" && len(args) > 0 && strings.Contains(" run test build vet ", " "+args[0]+" "):
			for _, a := range args[1:] {
				if !strings.HasPrefix(a, "./") {
					continue
				}
				pkg := strings.TrimRight(a, ",;)")
				dir, tree := strings.CutSuffix(pkg, "/...")
				if !holdsGo(filepath.Join(root, dir), tree) {
					bad("`go %s %s`: no Go files in %s", args[0], pkg, dir)
				}
				if args[0] == "run" {
					break // the rest are the program's arguments
				}
			}
		case w == "make" && len(args) > 0 && !targets[args[0]] && !strings.HasPrefix(args[0], "-"):
			bad("`make %s`: no such Makefile target", args[0])
		case w == "ebench" || strings.HasSuffix(w, "/ebench"):
			for j, a := range args {
				id, ok := strings.CutPrefix(a, "-experiment=")
				if a == "-experiment" && j+1 < len(args) {
					id, ok = args[j+1], true
				}
				if ok && !strings.HasPrefix(id, "<") && !knownExperiment(id) {
					bad("`ebench -experiment %s`: no such experiment in All", id)
				}
			}
		}
	}
	return errs
}

func knownExperiment(id string) bool {
	for _, e := range All {
		if strings.EqualFold(e.ID, id) {
			return true
		}
	}
	return false
}

// holdsGo reports whether dir holds a Go file, or with tree, whether any
// directory below it does.
func holdsGo(dir string, tree bool) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	for _, e := range entries {
		if tree && e.IsDir() && holdsGo(filepath.Join(dir, e.Name()), true) {
			return true
		}
	}
	return false
}

// TestDocCommands: every command the documents quote, and every make
// target CI runs, names something that exists. A document of three bad commands among good ones fails on
// exactly those three lines first, so the check is known to bite.
func TestDocCommands(t *testing.T) {
	root := filepath.Join("..", "..")
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeTarget.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}
	check := func(name, doc string) []string {
		var errs []string
		for _, s := range codeSnippets(name, doc) {
			errs = append(errs, commandErrors(root, targets, s)...)
		}
		return errs
	}

	bad := "```sh\ngo run ./examples/gpt2   # gone\nmake smoke && make loc\n```\n\n" +
		"Run `go test -run X ./internal/experiments ./...`, `ebench -experiment T1 -v` or\n" +
		"`go run ./cmd/ebench\n-experiment e15`.\n"
	errs := check("DOC.md", bad)
	if len(errs) != 3 || !strings.HasPrefix(errs[0], "DOC.md:2: ") ||
		!strings.HasPrefix(errs[1], "DOC.md:3: ") || !strings.HasPrefix(errs[2], "DOC.md:7: ") {
		t.Fatalf("bad commands reported as %q, want one each at DOC.md:2, :3 and :7", errs)
	}

	// CI names its steps' commands in `run:` lines; every make target
	// there must exist too.
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(ci), "\n") {
		if cmd, ok := strings.CutPrefix(strings.TrimLeft(strings.TrimSpace(line), "- "), "run:"); ok {
			for _, e := range commandErrors(root, targets, snippet{fmt.Sprintf(".github/workflows/ci.yml:%d", i+1), cmd}) {
				t.Error(e)
			}
		}
	}

	for _, pattern := range commandDocs {
		names, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range names {
			doc, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name, _ := filepath.Rel(root, path)
			for _, e := range check(name, string(doc)) {
				t.Error(e)
			}
		}
	}
}
