package schedsvc

import (
	"fmt"
	"strconv"
	"strings"
)

// This file turns a Config's node and task classes into EIL source. The
// scheduler never evaluates these interfaces in-process: the source is
// registered fleet-wide through the router (Scheduler.Register) and then
// queried over the wire, so the declared node-cost and task-demand models
// live where every other energy interface lives — in the served registry,
// versioned, cached, and visible to any other fleet client.

// identName mangles a class name into an EIL identifier: any character
// outside [A-Za-z0-9_] becomes '_'. Config.Validate rejects class sets
// whose mangled names collide.
func identName(class string) string {
	out := []byte(class)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

// NodeInterfaceName returns the registered interface name for a node
// class.
func NodeInterfaceName(class string) string { return "node_" + identName(class) }

// TaskInterfaceName returns the registered interface name for a task
// class.
func TaskInterfaceName(class string) string { return "task_" + identName(class) }

// num formats a float as an EIL numeric literal. strconv's shortest
// round-trip form ('g') emits plain or exponent notation, both of which
// the EIL lexer accepts.
func num(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// perLevel emits an if/else chain dispatching on the numeric `level`
// argument: branch l guards `level < l+0.5`, the last level is the plain
// else arm (a single level needs no branch at all). body(l) supplies the
// statement lines of arm l.
func perLevel(b *strings.Builder, levels int, body func(l int) []string) {
	for l := 0; l < levels; l++ {
		indent := "      "
		switch {
		case levels == 1:
			indent = "    "
		case l == 0:
			fmt.Fprintf(b, "    if level < %s {\n", num(float64(l)+0.5))
		case l < levels-1:
			fmt.Fprintf(b, "    } else if level < %s {\n", num(float64(l)+0.5))
		default:
			b.WriteString("    } else {\n")
		}
		for _, line := range body(l) {
			b.WriteString(indent + line + "\n")
		}
	}
	if levels > 1 {
		b.WriteString("    }\n")
	}
}

// NodeEIL returns the EIL interface for one node class, folded over the
// round length:
//
//	cost(cycles, level)  — joules for one node of the class to execute
//	                       `cycles` at DVFS `level` for a round: active
//	                       power over the busy fraction, idle power over
//	                       the rest (so running fewer cycles at a lean
//	                       level really is cheaper than racing at the top
//	                       level, the DVFS trade the scheduler explores);
//	idle()               — joules one node burns hosting nothing;
//	capacity(level)      — cycles one node sustains per round at `level`.
//
// Levels select by if/else chain on the numeric argument; the constants
// are pre-multiplied by roundSeconds so the wire arguments stay the
// canonical (cycles, level) pair the memo keys on.
func NodeEIL(nc NodeClass) string {
	var b strings.Builder
	fmt.Fprintf(&b, "interface %s \"energy interface of a %s cluster node (region %s)\" {\n",
		NodeInterfaceName(nc.Name), nc.Name, nc.Region)

	fmt.Fprintf(&b, "  func cost(cycles, level) \"joules to execute cycles for one round at a DVFS level\" {\n")
	perLevel(&b, len(nc.Levels), func(l int) []string {
		op := nc.Levels[l]
		return []string{
			// busy fraction of the round at this level, clamped to the round.
			"let busy = min(cycles / " + num(op.CyclesPerSec*roundSeconds) + ", 1)",
			"return " + num(float64(op.ActiveW)*roundSeconds) + " * busy + " +
				num(float64(nc.IdleW)*roundSeconds) + " * (1 - busy)",
		}
	})
	b.WriteString("  }\n")

	fmt.Fprintf(&b, "  func idle() \"joules one idle node burns per round\" {\n")
	fmt.Fprintf(&b, "    return %s\n  }\n", num(float64(nc.IdleW)*roundSeconds))

	fmt.Fprintf(&b, "  func capacity(level) \"cycles one node sustains per round at a DVFS level\" {\n")
	perLevel(&b, len(nc.Levels), func(l int) []string {
		return []string{"return " + num(nc.Levels[l].CyclesPerSec*roundSeconds)}
	})
	b.WriteString("  }\n")

	b.WriteString("}\n")
	return b.String()
}

// TaskEIL returns the EIL interface for one task class:
//
//	demand_cycles(p) — cycles one task of the class demands in phase p of
//	                   its period (peak for the first PeakLen phases,
//	                   trough after).
//
// Callers reduce the phase index mod Period() before querying, so the
// argument space — and therefore the fleet memo's working set — is
// exactly the period, however many rounds the scheduler runs.
func TaskEIL(tc TaskClass) string {
	var b strings.Builder
	fmt.Fprintf(&b, "interface %s \"declared demand of a %s task\" {\n",
		TaskInterfaceName(tc.Name), tc.Name)
	fmt.Fprintf(&b, "  func demand_cycles(p) \"cycles demanded in phase p of the period\" {\n")
	fmt.Fprintf(&b, "    let phase = p %% %d\n", tc.Period())
	fmt.Fprintf(&b, "    if phase < %s {\n", num(float64(tc.PeakLen)-0.5))
	fmt.Fprintf(&b, "      return %s\n", num(tc.PeakCycles))
	fmt.Fprintf(&b, "    } else {\n")
	fmt.Fprintf(&b, "      return %s\n", num(tc.TroughCycles))
	fmt.Fprintf(&b, "    }\n  }\n}\n")
	return b.String()
}

// SourceEIL concatenates every node and task interface of a Config into
// one registrable EIL source.
func SourceEIL(cfg Config) string {
	var b strings.Builder
	b.WriteString("// generated by schedsvc: cluster node cost and task demand interfaces\n")
	for _, nc := range cfg.Nodes {
		b.WriteString(NodeEIL(nc))
	}
	for _, tc := range cfg.Tasks {
		b.WriteString(TaskEIL(tc))
	}
	return b.String()
}
