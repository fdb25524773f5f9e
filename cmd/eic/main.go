// Command eic is the energy-interface compiler/checker: it parses, checks,
// formats, and evaluates EIL files.
//
// Usage:
//
//	eic check file.eil            parse + semantic-check, report errors
//	eic fmt file.eil              print the canonical formatting
//	eic describe file.eil         list interfaces, ECVs, methods, bindings
//	eic eval -i name -m method [-args json] [-mode mode] [-dump] file.eil
//	eic optimize -e energy -l latency -knobs 'batch=1,2,4 level=0,1' \
//	    [-slo ms] [-i name] [-mode mode] [-max n] file.eil
//
// optimize sweeps the cross product of the knob values (each knob's
// values become the method arguments, in the order given), prunes
// dominated configurations, and prints the exact energy/latency Pareto
// frontier plus the cheapest point under the -slo p99 ceiling — the
// offline spelling of the daemon's POST /v1/optimize (see
// docs/AUTOOPT.md).
//
// -dump prints the optimizing compiler's pipeline for the method before
// the result: the lowered (fully inlined) IR, the constant-folded IR, each
// parameter's classification (data, or control and why), the IR
// specialized for the given arguments (data arguments stay arg<i>), and
// the flat instruction listing with its register constants, argument
// registers, ECV dependencies, and hoisted prefix (see internal/opt and
// docs/EIL.md).
//
// Modes take the spellings core.Mode.String emits — expected, worst-case,
// best-case, fixed, monte-carlo — plus the short aliases worst and best;
// the same parser (core.ParseMode) backs the eid daemon's wire protocol,
// so CLI and daemon agree.
//
// Arguments are passed as a JSON array, e.g. -args '[1024, true, {"size": 10}]'.
// JSON objects become records, arrays become lists.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"energyclarity/internal/autoopt"
	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/opt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "eic:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: eic <check|fmt|describe|eval|optimize> [flags] file.eil")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "check":
		return withFile(rest, func(src string) error {
			f, err := eil.Parse(src)
			if err != nil {
				return err
			}
			if err := eil.Check(f, nil); err != nil {
				return err
			}
			fmt.Printf("ok: %d interface(s)\n", len(f.Interfaces))
			return nil
		})
	case "fmt":
		return withFile(rest, func(src string) error {
			f, err := eil.Parse(src)
			if err != nil {
				return err
			}
			fmt.Print(eil.Print(f))
			return nil
		})
	case "describe":
		return withFile(rest, func(src string) error {
			m, err := eil.Compile(src, nil)
			if err != nil {
				return err
			}
			for _, iface := range m {
				fmt.Print(iface.Describe())
			}
			return nil
		})
	case "eval":
		return evalCmd(rest)
	case "optimize":
		return optimizeCmd(rest)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func withFile(args []string, fn func(src string) error) error {
	if len(args) != 1 {
		return fmt.Errorf("expected exactly one file argument")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	return fn(string(data))
}

func evalCmd(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	ifaceName := fs.String("i", "", "interface name (default: last in file)")
	method := fs.String("m", "", "method name (required)")
	argsJSON := fs.String("args", "[]", "method arguments as a JSON array")
	mode := fs.String("mode", "expected", "expected | worst-case | best-case | fixed | monte-carlo")
	samples := fs.Int("samples", 0, "Monte Carlo samples (0 = exact enumeration)")
	dump := fs.Bool("dump", false, "print the compiled instruction listing, pass by pass")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *method == "" {
		return fmt.Errorf("eval: -m method is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("eval: expected one file argument")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	compiled, err := eil.Compile(string(data), nil)
	if err != nil {
		return err
	}
	var iface *core.Interface
	if *ifaceName != "" {
		iface = compiled[*ifaceName]
		if iface == nil {
			return fmt.Errorf("eval: no interface %q in file", *ifaceName)
		}
	} else {
		f, _ := eil.Parse(string(data))
		iface = compiled[f.Interfaces[len(f.Interfaces)-1].Name]
	}

	var raw []interface{}
	if err := json.Unmarshal([]byte(*argsJSON), &raw); err != nil {
		return fmt.Errorf("eval: bad -args: %v", err)
	}
	vals := make([]core.Value, len(raw))
	for i, r := range raw {
		v, err := jsonToValue(r)
		if err != nil {
			return err
		}
		vals[i] = v
	}

	m, err := core.ParseMode(*mode)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	opts := core.EvalOptions{Mode: m}
	if *samples > 0 {
		opts.Mode = core.ModeMonteCarlo
		opts.Samples = *samples
	}
	if *dump {
		out, err := opt.DumpMethod(iface, *method, vals)
		if err != nil {
			return fmt.Errorf("eval: -dump: %w", err)
		}
		fmt.Print(out)
		fmt.Println()
	}
	d, err := iface.Eval(*method, vals, opts)
	if err != nil {
		return err
	}
	fmt.Printf("%s.%s(%s) [%s]\n", iface.Name(), *method, *argsJSON, opts.Mode)
	fmt.Printf("  mean:  %.6g J\n", d.Mean())
	fmt.Printf("  std:   %.6g J\n", d.Std())
	fmt.Printf("  range: [%.6g, %.6g] J\n", d.Min(), d.Max())
	fmt.Printf("  dist:  %s\n", d)
	return nil
}

func optimizeCmd(args []string) error {
	fs := flag.NewFlagSet("optimize", flag.ContinueOnError)
	ifaceName := fs.String("i", "", "interface name (default: last in file)")
	energy := fs.String("e", "energy", "energy method (objective: mean J/request)")
	latency := fs.String("l", "latency", "latency method (objective: exact p99 ms/request)")
	knobs := fs.String("knobs", "", "knob space, e.g. 'batch=1,2,4 level=0,1' (required; order = argument order)")
	slo := fs.Float64("slo", 0, "p99 latency SLO in ms (0 = frontier only, no recommendation)")
	mode := fs.String("mode", "expected", "expected | worst-case | best-case | monte-carlo")
	samples := fs.Int("samples", 0, "Monte Carlo samples (0 = exact enumeration)")
	maxConfigs := fs.Int("max", 0, "cap on the knob cross product (0 = default)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("optimize: expected one file argument")
	}
	space, err := parseKnobs(*knobs)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	compiled, err := eil.Compile(string(data), nil)
	if err != nil {
		return err
	}
	var iface *core.Interface
	if *ifaceName != "" {
		iface = compiled[*ifaceName]
		if iface == nil {
			return fmt.Errorf("optimize: no interface %q in file", *ifaceName)
		}
	} else {
		f, _ := eil.Parse(string(data))
		iface = compiled[f.Interfaces[len(f.Interfaces)-1].Name]
	}
	m, err := core.ParseMode(*mode)
	if err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	opts := core.EvalOptions{Mode: m}
	if *samples > 0 {
		opts.Mode = core.ModeMonteCarlo
		opts.Samples = *samples
	}

	spec := autoopt.Spec{Space: space, SLOMs: *slo, MaxConfigs: *maxConfigs}
	res, err := autoopt.Sweep(context.Background(),
		spec, autoopt.CoreEvaluator(iface, *energy, *latency, opts))
	if err != nil {
		return err
	}

	names := make([]string, len(space))
	for i, k := range space {
		names[i] = k.Name
	}
	point := func(p *autoopt.Point) string {
		parts := make([]string, len(p.Knobs))
		for i, v := range p.Knobs {
			parts[i] = fmt.Sprintf("%s=%g", names[i], v)
		}
		return fmt.Sprintf("%-28s %12.6g J %10.4g ms", strings.Join(parts, " "), p.EnergyJ, p.LatencyMs)
	}
	fmt.Printf("%s: swept %d configuration(s), %d evaluation(s) [%s]\n",
		iface.Name(), res.Configs, res.Evals, opts.Mode)
	fmt.Printf("pareto frontier (%d point(s), digest %016x):\n", len(res.Frontier), res.Digest)
	for i := range res.Frontier {
		fmt.Printf("  %s\n", point(&res.Frontier[i]))
	}
	if res.MaxPerf != nil {
		fmt.Printf("max-perf:    %s\n", point(res.MaxPerf))
	}
	if *slo > 0 {
		if res.Recommended == nil {
			return fmt.Errorf("optimize: no frontier point meets p99 <= %g ms", *slo)
		}
		fmt.Printf("recommended: %s  (p99 <= %g ms, saves %.1f%%)\n",
			point(res.Recommended), *slo, 100*res.SavingsFrac)
	}
	return nil
}

// parseKnobs reads 'batch=1,2,4 level=0,1' into an ordered knob space.
func parseKnobs(s string) (autoopt.Space, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, fmt.Errorf("optimize: -knobs is required, e.g. 'batch=1,2,4 level=0,1'")
	}
	space := make(autoopt.Space, len(fields))
	for i, f := range fields {
		name, list, ok := strings.Cut(f, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("optimize: bad knob %q, want name=v1,v2,...", f)
		}
		var vals []float64
		for _, tok := range strings.Split(list, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(tok), 64)
			if err != nil {
				return nil, fmt.Errorf("optimize: knob %s: bad value %q", name, tok)
			}
			vals = append(vals, v)
		}
		space[i] = autoopt.Knob{Name: name, Values: vals}
	}
	return space, nil
}

func jsonToValue(r interface{}) (core.Value, error) {
	switch x := r.(type) {
	case nil:
		return core.Nil(), nil
	case bool:
		return core.Bool(x), nil
	case float64:
		return core.Num(x), nil
	case string:
		return core.Str(x), nil
	case []interface{}:
		items := make([]core.Value, len(x))
		for i, e := range x {
			v, err := jsonToValue(e)
			if err != nil {
				return core.Value{}, err
			}
			items[i] = v
		}
		return core.List(items...), nil
	case map[string]interface{}:
		fields := make(map[string]core.Value, len(x))
		for k, e := range x {
			v, err := jsonToValue(e)
			if err != nil {
				return core.Value{}, err
			}
			fields[k] = v
		}
		return core.Record(fields), nil
	default:
		return core.Value{}, fmt.Errorf("unsupported JSON value %T", r)
	}
}
