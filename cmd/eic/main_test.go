package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/nn"
	"energyclarity/internal/opt"
)

const validEIL = `
interface hw {
  func op(n) { return 2nJ * n }
}
interface svc {
  ecv hit: bernoulli(0.9) "request cached"
  uses hw: hw
  func handle(n) {
    if hit { return 5mJ }
    return hw.op(n)
  }
}
`

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "test.eil")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown command accepted")
	}
}

func TestCheckCommand(t *testing.T) {
	path := writeTemp(t, validEIL)
	if err := run([]string{"check", path}); err != nil {
		t.Fatal(err)
	}
	bad := writeTemp(t, `interface x { func f() { return nope } }`)
	if err := run([]string{"check", bad}); err == nil {
		t.Fatal("invalid program accepted")
	}
	if err := run([]string{"check"}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"check", filepath.Join(t.TempDir(), "missing.eil")}); err == nil {
		t.Fatal("missing file path accepted")
	}
}

func TestFmtAndDescribeCommands(t *testing.T) {
	path := writeTemp(t, validEIL)
	if err := run([]string{"fmt", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"describe", path}); err != nil {
		t.Fatal(err)
	}
}

func TestEvalCommand(t *testing.T) {
	path := writeTemp(t, validEIL)
	cases := [][]string{
		{"eval", "-m", "handle", "-args", "[100]", path},
		{"eval", "-i", "svc", "-m", "handle", "-args", "[100]", "-mode", "worst", path},
		{"eval", "-m", "handle", "-args", "[100]", "-mode", "best", path},
		{"eval", "-m", "handle", "-args", "[100]", "-samples", "100", path},
	}
	for _, args := range cases {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
	bad := [][]string{
		{"eval", path}, // missing -m
		{"eval", "-m", "handle", "-args", "not-json", path}, // bad args
		{"eval", "-m", "nope", "-args", "[]", path},         // unknown method
		{"eval", "-i", "ghost", "-m", "handle", path},       // unknown interface
		{"eval", "-m", "handle", "-mode", "sideways", path}, // bad mode
		{"eval", "-m", "handle"},                            // no file
	}
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestEvalDefaultInterfaceIsLast(t *testing.T) {
	// Without -i, eval targets the last interface in the file (svc).
	path := writeTemp(t, validEIL)
	if err := run([]string{"eval", "-m", "handle", "-args", "[10]", path}); err != nil {
		t.Fatal(err)
	}
	// hw.op is not on svc.
	if err := run([]string{"eval", "-m", "op", "-args", "[10]", path}); err == nil ||
		!strings.Contains(err.Error(), "op") {
		t.Fatalf("method of non-default interface resolved: %v", err)
	}
}

func TestEvalDumpFlag(t *testing.T) {
	path := writeTemp(t, validEIL)
	if err := run([]string{"eval", "-m", "handle", "-args", "[100]", "-dump", path}); err != nil {
		t.Fatal(err)
	}
	// -dump on a missing method must fail like eval does.
	if err := run([]string{"eval", "-m", "nope", "-dump", path}); err == nil {
		t.Fatal("dump of unknown method accepted")
	}
}

// The compiled pipeline for a GPT-2 layer method is pinned by a golden
// file: any change to lowering, folding, specialization, or emission
// shows up as a readable diff. Regenerate with UPDATE_GOLDEN=1.
func TestDumpGoldenGPT2LayerDecode(t *testing.T) {
	stack, err := nn.GPT2EILStack()
	if err != nil {
		t.Fatal(err)
	}
	out, err := opt.DumpMethod(stack, "layer_decode", []core.Value{core.Num(128)})
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "gpt2_layer_decode.dump")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if out != string(want) {
		t.Fatalf("dump differs from %s (set UPDATE_GOLDEN=1 to regenerate);\ngot:\n%s", golden, out)
	}
}
