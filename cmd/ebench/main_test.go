package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

func TestRunRequiresSelection(t *testing.T) {
	if err := run(io.Discard, false, "", false, false); err == nil {
		t.Fatal("no selection accepted")
	}
	if err := run(io.Discard, false, "zz", false, false); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestRunLightExperiments exercises the dispatch paths that do not need a
// full rig (a2 runs in microseconds); heavier experiments are covered by
// internal/experiments tests.
func TestRunLightExperiments(t *testing.T) {
	if err := run(io.Discard, false, "a2", false, false); err != nil {
		t.Fatal(err)
	}
	var md bytes.Buffer
	if err := run(&md, false, "a2", true, false); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(md.String(), "**A2: ") || !strings.Contains(md.String(), "\n|---|") {
		t.Errorf("-md output is not a Markdown table:\n%s", md.String())
	}
	if err := run(io.Discard, false, "e1", false, false); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, false, "e3", false, false); err != nil {
		t.Fatal(err)
	}
}

// TestRunVerboseArtifacts: -v prints E5's extracted EIL and T1's per-run
// lines ahead of their tables.
func TestRunVerboseArtifacts(t *testing.T) {
	for _, tc := range []struct {
		id   string
		want []string
	}{
		{"e5", []string{"# extracted EIL:", "ecv pool_warm"}},
		{"t1", []string{" per-run:", " tokens: predicted "}},
	} {
		var buf bytes.Buffer
		if err := run(&buf, false, tc.id, false, true); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		for _, w := range tc.want {
			if !strings.Contains(buf.String(), w) {
				t.Errorf("%s -v output missing %q:\n%s", tc.id, w, buf.String())
			}
		}
	}
}

func TestRunOneDispatchTable(t *testing.T) {
	for _, id := range []string{"a1", "a2", "e1", "e2", "e3", "e5"} {
		tab, err := runOne(io.Discard, id, false)
		if err != nil {
			t.Errorf("%s: %v", id, err)
			continue
		}
		if tab == nil || len(tab.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
	}
	if _, err := runOne(io.Discard, "nope", false); err == nil {
		t.Error("unknown id accepted")
	}
	// IDs match case-insensitively: the flag takes what the tables print.
	upper, err := runOne(io.Discard, "A2", false)
	if err != nil {
		t.Fatal(err)
	}
	lower, err := runOne(io.Discard, "a2", false)
	if err != nil {
		t.Fatal(err)
	}
	if upper.ID != "A2" || lower.ID != upper.ID || lower.Title != upper.Title {
		t.Errorf("A2 resolved to %s %q, a2 to %s %q", upper.ID, upper.Title, lower.ID, lower.Title)
	}
}
