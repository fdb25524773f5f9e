// Package energyclarity is a Go implementation of the energy-interfaces
// architecture from "The Case for Energy Clarity" (Chung, Kuo, Candea —
// HotOS 2025): make energy programmable the way functionality is.
//
// An energy interface is a small executable program that takes the same
// (abstracted) input as a module's implementation and returns the energy
// the implementation would consume. Interfaces declare energy-critical
// variables (ECVs) — random variables for state the input doesn't capture,
// such as cache hits — so evaluating an interface yields a probability
// distribution over joules. Interfaces compose: a layer's interface calls
// into the interfaces of the resources below it, and swapping hardware is
// a one-line rebinding of the bottom layer.
//
// This package is the public facade; subsystems live under internal/:
//
//   - core: the interface runtime (Interface, ECV, evaluation modes,
//     composition, rebinding) — re-exported here.
//   - energy: units and discrete energy distributions — re-exported here.
//   - eil: the Energy Interface Language (Fig. 1-style programs) with
//     lexer, parser, checker, interpreter, printer — Compile re-exported.
//   - extract: the implementation→interface toolchain (§4.2).
//   - verify: refinement checking, energy-bug testing, constant-energy
//     (side-channel) checking (§4.1/§4.2).
//   - gpusim/nvml/rapl/microbench/nn/cpusim/sched/cluster/cache/mlservice:
//     the simulated substrates and systems the evaluation runs on.
//   - experiments: every table and figure (see EXPERIMENTS.md).
//
// # Quickstart
//
// Build an interface, evaluate it, rebind it:
//
//	hw := energyclarity.New("accel").MustMethod(energyclarity.Method{
//	    Name: "op", Params: []string{"n"},
//	    Body: func(c *energyclarity.Call) energyclarity.Joules {
//	        return energyclarity.Joules(c.Num(0)) * 2e-9
//	    },
//	})
//	svc := energyclarity.New("svc").
//	    MustECV(energyclarity.BoolECV("hit", 0.9, "request cached")).
//	    MustBind("hw", hw).
//	    MustMethod(energyclarity.Method{
//	        Name: "handle", Params: []string{"n"},
//	        Body: func(c *energyclarity.Call) energyclarity.Joules {
//	            if c.ECVBool("hit") {
//	                return 5e-6
//	            }
//	            return c.E("hw", "op", c.Arg(0))
//	        },
//	    })
//	dist, err := svc.Eval("handle", []energyclarity.Value{energyclarity.Num(1e6)},
//	    energyclarity.Expected())
//
// Or write the same interface in EIL (docs/EIL.md; ExampleCompile) and
// compile it with Compile.
package energyclarity

import (
	"energyclarity/internal/core"
	"energyclarity/internal/eil"
	"energyclarity/internal/energy"

	// Register the EIL→bytecode optimizing compiler (internal/opt): EIL
	// interfaces evaluate through flat instruction programs with
	// transparent, bit-identical interpreter fallback. EvalOptions.Interpret
	// forces the interpreter for differential testing and baselines.
	_ "energyclarity/internal/opt"
)

// Re-exported fundamental types. Aliases keep the internal packages and
// the public API interchangeable.
type (
	// Joules is an amount of energy.
	Joules = energy.Joules
	// Watts is power.
	Watts = energy.Watts
	// Dist is a discrete probability distribution over energy values.
	Dist = energy.Dist
	// Abstract is an energy amount in abstract units ("2 ReLUs' worth").
	Abstract = energy.Abstract
	// Basis concretizes abstract units into joules.
	Basis = energy.Basis

	// Interface is an energy interface: methods + ECVs + bindings.
	Interface = core.Interface
	// Method is one energy method of an interface.
	Method = core.Method
	// Body is a method's executable body.
	Body = core.Body
	// Call is the evaluation context passed to a Body.
	Call = core.Call
	// ECV is an energy-critical variable.
	ECV = core.ECV
	// Weighted is one support point of an ECV distribution.
	Weighted = core.Weighted
	// QualifiedECV names an ECV by its binding path.
	QualifiedECV = core.QualifiedECV
	// Value is the dynamic value model of interface inputs.
	Value = core.Value
	// Kind is a Value's dynamic type.
	Kind = core.Kind
	// EvalOptions configures Interface.Eval.
	EvalOptions = core.EvalOptions
	// Mode selects how ECV randomness is resolved.
	Mode = core.Mode
)

// Re-exported constructors and helpers.
var (
	// New creates an empty interface.
	New = core.New
	// BoolECV declares a boolean energy-critical variable.
	BoolECV = core.BoolECV
	// NumECV declares a numeric energy-critical variable.
	NumECV = core.NumECV
	// FixedECV declares a single-valued energy-critical variable.
	FixedECV = core.FixedECV

	// Nil, Bool, Num, Int, Str, Record, List construct Values.
	Nil    = core.Nil
	Bool   = core.Bool
	Num    = core.Num
	Int    = core.Int
	Str    = core.Str
	Record = core.Record
	List   = core.List

	// Expected, WorstCase, BestCase, FixedAssignment, MonteCarlo build
	// evaluation options.
	Expected        = core.Expected
	WorstCase       = core.WorstCase
	BestCase        = core.BestCase
	FixedAssignment = core.FixedAssignment
	MonteCarlo      = core.MonteCarlo

	// Compile parses, checks, and compiles EIL source into interfaces.
	Compile = eil.Compile
	// CompileOne compiles EIL source and returns its last interface.
	CompileOne = eil.CompileOne

	// Point, Bernoulli, Categorical, UniformOver, Mix build distributions.
	Point       = energy.Point
	Bernoulli   = energy.Bernoulli
	Categorical = energy.Categorical
	UniformOver = energy.UniformOver
	Mix         = energy.Mix

	// Units builds abstract energy amounts.
	Units = energy.Units

	// RelativeError is |predicted-actual|/|actual|, the paper's metric.
	RelativeError = energy.RelativeError
)

// Unit constants.
const (
	Nanojoule  = energy.Nanojoule
	Microjoule = energy.Microjoule
	Millijoule = energy.Millijoule
	Joule      = energy.Joule
	Kilojoule  = energy.Kilojoule
	Megajoule  = energy.Megajoule

	Microwatt = energy.Microwatt
	Milliwatt = energy.Milliwatt
	Watt      = energy.Watt
	Kilowatt  = energy.Kilowatt
)

// Evaluation modes.
const (
	ModeExpected   = core.ModeExpected
	ModeWorstCase  = core.ModeWorstCase
	ModeBestCase   = core.ModeBestCase
	ModeFixed      = core.ModeFixed
	ModeMonteCarlo = core.ModeMonteCarlo
)
