package core

import (
	"sync"
	"sync/atomic"
)

// This file is the runtime side of the EIL optimizing compiler
// (internal/opt): the hook a compiler registers itself through, the
// per-interface compiled-program cache, and the process-wide counters the
// daemon exports. The compiler itself lives outside core (it needs the EIL
// AST); core only knows how to *route* evaluations through a compiled
// program and how to fall back to the interpreter when compilation or
// specialization declines.
//
// Cache keying mirrors LayerCache exactly: a compiled program is valid for
// one subtree-version fold (mix64 over the node versions of the whole
// binding tree). Any mutation — SetECV, AddMethod, Bind — bumps a version,
// changes the fold, and the stale program is dropped on the next Eval;
// Rebind clones the path with fresh versions, so a rebound tree never sees
// a program compiled against the old bindings.

// CompiledProgram is the compiled form of one method of one interface
// tree, produced by a registered MethodCompiler. It is immutable and safe
// for concurrent use.
type CompiledProgram interface {
	// Specialize returns the program bound to one Eval's arguments and
	// pinned ECV values. The expensive half — partial evaluation (pinned
	// ECV reads and the arguments that steer control flow become
	// immediates, dead branches drop, loop bounds become static) and code
	// emission — is the implementation's to cache across Evals; binding
	// the remaining arguments is per call. free lists the unpinned ECVs in
	// evaluation order — always the tree's transitive ECVs minus the
	// pinned ones — and the returned program's Run takes values aligned
	// with that order. Specialize returns ok=false when the residual
	// program is outside the compiled subset (e.g. a loop bound still
	// dynamic, or a statically detectable fuel overrun) — the caller then
	// falls back to the interpreter.
	Specialize(args []Value, pinned map[string]Value, free []QualifiedECV) (SpecializedProgram, bool)
}

// SpecializedProgram evaluates a method, for the arguments it was bound
// to, under assignments of its free ECVs. Implementations are safe for
// concurrent Run calls.
type SpecializedProgram interface {
	// Run evaluates under one complete free-ECV assignment; vals is
	// aligned with the free slice passed to Specialize (slots for ECVs
	// the program never reads may be the zero Value).
	Run(vals []Value) (float64, error)
	// Deps returns the sorted indexes (into the free slice) of the ECVs
	// the program can observe. Enumeration evaluates the program only
	// over the dependent sub-space and replicates results across the
	// remaining dimensions — the distribution-collapse optimization.
	Deps() []int
	// FillTable bulk-evaluates the program over the row-major product
	// space of dims (support values of the Deps ECVs, in Deps order),
	// writing results to out (len = product of dims lengths). It returns
	// ok=false if the program has no bulk path, in which case the caller
	// iterates with Run. The values written are bit-identical to per-index
	// Run calls.
	FillTable(dims [][]Value, out []float64) (ok bool, err error)
	// Release hands the program's per-Eval state back for reuse. EvalCtx
	// calls it once, when it returns; the program must not be used after.
	Release()
}

// MethodCompiler compiles one method of the tree rooted at root. A nil
// program (or an error) means the method is outside the compilable subset;
// evaluation falls back to the tree-walking interpreter.
type MethodCompiler func(root *Interface, method string) (CompiledProgram, error)

var methodCompiler atomic.Pointer[MethodCompiler]

// RegisterCompiler installs the process-wide method compiler. It is called
// once from the compiler package's init (importing internal/opt enables
// compiled evaluation everywhere); re-registering replaces the compiler.
func RegisterCompiler(c MethodCompiler) {
	if c == nil {
		methodCompiler.Store(nil)
		return
	}
	methodCompiler.Store(&c)
}

// CompilerRegistered reports whether a method compiler is installed.
func CompilerRegistered() bool { return methodCompiler.Load() != nil }

// ProgramStats are process-wide compiled-evaluation counters, exported by
// the daemon as /v1/stats compiled_* fields.
type ProgramStats struct {
	// CompiledPrograms counts successful method compilations.
	CompiledPrograms uint64
	// CompileFallbacks counts interpreter fallbacks: methods the compiler
	// declined plus specializations the compiled program declined.
	CompileFallbacks uint64
	// CompiledEvals counts Evals served through a compiled program.
	CompiledEvals uint64
	// Specializations counts the times a compiled program emitted code
	// for a new specialization. It moves with distinct (control-argument,
	// pinned-ECV) shapes, not with Evals: on a warm node it should be
	// flat, and one that climbs with CompiledEvals is churning its
	// specialization caches.
	Specializations uint64
}

var progStats struct {
	compiled  atomic.Uint64
	fallbacks atomic.Uint64
	evals     atomic.Uint64
	specs     atomic.Uint64
}

// CountSpecialization records one code emission; the registered compiler
// calls it.
func CountSpecialization() { progStats.specs.Add(1) }

// ReadProgramStats returns a snapshot of the compiled-evaluation counters.
func ReadProgramStats() ProgramStats {
	return ProgramStats{
		CompiledPrograms: progStats.compiled.Load(),
		CompileFallbacks: progStats.fallbacks.Load(),
		CompiledEvals:    progStats.evals.Load(),
		Specializations:  progStats.specs.Load(),
	}
}

// subtreeFold folds the version of every node in the binding tree into one
// fingerprint — the same order-sensitive mix64 fold the layer cache uses
// (see LayerCache.evalContext), minus the descriptor bookkeeping. Versions
// are globally unique, so any construction change anywhere in the tree
// changes the fold.
func (i *Interface) subtreeFold() uint64 {
	ver := mix64(i.version)
	for _, bn := range i.bindOrd {
		ver = mix64(ver ^ i.bindings[bn].subtreeFold())
	}
	return ver
}

// progEntry caches one method's compiled program for one subtree fold.
// once makes the compilation happen exactly once however many first Evals
// race for it; prog == nil afterwards records a declined compilation, so
// fallback methods are not re-analyzed on every Eval.
type progEntry struct {
	fold uint64
	once sync.Once
	prog CompiledProgram
}

// compiledFor returns the compiled program for the named method, compiling
// (or recompiling, after a version change) on demand — once per (method,
// fold): racing first Evals install one entry and all but the first wait
// for its compilation, so they share one program and the specialization
// cache inside it. It returns nil when no compiler is registered or the
// method is outside the compiled subset.
func (i *Interface) compiledFor(method string) CompiledProgram {
	cp := methodCompiler.Load()
	if cp == nil {
		return nil
	}
	fold := i.subtreeFold()
	var ent *progEntry
	for ent == nil {
		e, ok := i.progs.Load(method)
		if ok && e.(*progEntry).fold == fold {
			ent = e.(*progEntry)
			break
		}
		// At most one entry per method: a stale fold's is replaced. Losing
		// either race means someone else installed an entry; look again.
		fresh := &progEntry{fold: fold}
		if ok {
			if i.progs.CompareAndSwap(method, e, fresh) {
				ent = fresh
			}
		} else if _, loaded := i.progs.LoadOrStore(method, fresh); !loaded {
			ent = fresh
		}
	}
	ent.once.Do(func() {
		prog, err := (*cp)(i, method)
		if err != nil || prog == nil {
			progStats.fallbacks.Add(1)
			return
		}
		progStats.compiled.Add(1)
		ent.prog = prog
	})
	return ent.prog
}

// specializeFor runs compilation + specialization for one Eval and counts
// the outcome. A nil return means interpreter fallback; a non-nil program
// is the caller's to Release.
func (i *Interface) specializeFor(method string, opts EvalOptions, args []Value,
	base map[string]Value, free []QualifiedECV) SpecializedProgram {
	if opts.Interpret {
		return nil
	}
	prog := i.compiledFor(method)
	if prog == nil {
		return nil
	}
	spec, ok := prog.Specialize(args, base, free)
	if !ok || spec == nil {
		progStats.fallbacks.Add(1)
		return nil
	}
	progStats.evals.Add(1)
	return spec
}
