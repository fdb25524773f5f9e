package opt_test

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/nn"
	"energyclarity/internal/opt"
	"energyclarity/internal/schedsvc"
)

// dumpedParameters compiles iface.method and returns the lines of
// DumpMethod's parameters section, "name: data" or "name: control (why)".
func dumpedParameters(t *testing.T, iface *core.Interface, method string) []string {
	t.Helper()
	args := make([]core.Value, len(iface.Method(method).Params))
	for i := range args {
		args[i] = core.Num(2)
	}
	out, err := opt.DumpMethod(iface, method, args)
	if err != nil {
		t.Fatalf("%s.%s: %v", iface.Name(), method, err)
	}
	if !strings.Contains(out, ": code ==\nregisters:") {
		t.Fatalf("%s.%s did not compile:\n%s", iface.Name(), method, out)
	}
	_, section, ok := strings.Cut(out, fmt.Sprintf("== %s: parameters ==\n", method))
	if !ok {
		t.Fatalf("%s.%s: dump has no parameters section:\n%s", iface.Name(), method, out)
	}
	section, _, _ = strings.Cut(section, "\n\n")
	var lines []string
	for _, l := range strings.Split(section, "\n") {
		if l = strings.TrimSpace(l); l != "" && l != "none" {
			_, l, _ = strings.Cut(l, " ") // drop the arg<i> column
			lines = append(lines, l)
		}
	}
	return lines
}

// TestParameterClassification pins what the dependence pass decides for
// every method of the served fixtures: which parameters one emitted
// program covers for every num (data), and which specialize by value
// (control) and why. A parameter moving from control to data is a
// soundness question — it must reach no bool, loop bound, index, field,
// len, record or list; from data to control, a performance one.
func TestParameterClassification(t *testing.T) {
	twoLevel := schedsvc.NodeClass{Name: "big", Region: "south", Count: 1, IdleW: 50,
		Levels: []schedsvc.OperatingPoint{{CyclesPerSec: 8e9, ActiveW: 170}, {CyclesPerSec: 16e9, ActiveW: 420}}}
	oneLevel := schedsvc.NodeClass{Name: "flat", Region: "south", Count: 1, IdleW: 5,
		Levels: []schedsvc.OperatingPoint{{CyclesPerSec: 1e9, ActiveW: 9}}}
	web := schedsvc.TaskClass{Name: "web", PeakCycles: 2e8, TroughCycles: 2e7, PeakLen: 2, TroughLen: 2, RequestCycles: 1e8}
	sources := []string{
		nn.GPT2EIL,
		nn.MoEEIL,
		schedsvc.NodeEIL(twoLevel, 1) + schedsvc.NodeEIL(oneLevel, 1) + schedsvc.TaskEIL(web),
	}
	const cmp = "control (comparison)"
	want := map[string][]string{
		"device_hw.kernel_logical": {"instructions: data", "l1_accesses: data", "working_set: data", "reuse: data"},
		"gpt2_stack.mat":           {"m: data", "k: data", "n: data"},
		"gpt2_stack.elem":          {"n: data"},
		"gpt2_stack.layer_prefill": {"p: data"},
		"gpt2_stack.layer_decode":  {"ctx: data"},
		"gpt2_stack.prefill":       {"prompt_len: data"},
		"gpt2_stack.decode_token":  {"pos: data"},
		"gpt2_stack.generate":      {"prompt_len: data", "new_tokens: control (loop bound)"},

		"moe_device.speed":          {"level: " + cmp},
		"moe_device.joules_per_op":  {"level: " + cmp},
		"moe_device.hot_level":      {"level: " + cmp},
		"moe_device.eff_speed":      {"level: " + cmp},
		"moe_device.kernel":         {"ops: data", "level: " + cmp},
		"moe_stack.layer_compute":   nil,
		"moe_stack.layer_ops":       {"batch: data"},
		"moe_stack.request_ops":     {"batch: data"},
		"moe_stack.request_compute": nil,
		"moe_stack.energy":          {"batch: data", "level: " + cmp, "replicas: data"},
		"moe_stack.latency":         {"batch: data", "level: " + cmp, "replicas: data"},

		"node_big.cost":          {"cycles: data", "level: " + cmp},
		"node_big.idle":          nil,
		"node_big.capacity":      {"level: " + cmp},
		"node_flat.cost":         {"cycles: data", "level: data"}, // one level: no dispatch on it
		"node_flat.idle":         nil,
		"node_flat.capacity":     {"level: data"},
		"task_web.demand_cycles": {"p: " + cmp},
	}
	seen := map[string]bool{}
	for _, src := range sources {
		ifaces, err := eil.Compile(src, nil)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(ifaces))
		for name := range ifaces {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, method := range ifaces[name].Methods() {
				key := name + "." + method
				seen[key] = true
				exp, ok := want[key]
				if !ok {
					t.Errorf("%s: no expectation; add it to the table", key)
					continue
				}
				if got := dumpedParameters(t, ifaces[name], method); fmt.Sprint(got) != fmt.Sprint(exp) {
					t.Errorf("%s: parameters %q, want %q", key, got, exp)
				}
			}
		}
	}
	for key := range want {
		if !seen[key] {
			t.Errorf("%s: in the table but not in the fixtures", key)
		}
	}
}
