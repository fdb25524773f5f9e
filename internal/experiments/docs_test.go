package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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
