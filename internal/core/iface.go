package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"energyclarity/internal/energy"
)

// Body is the executable body of an energy method. It runs deterministically
// given the ECV assignment carried by the Call, and returns the energy the
// implementation would consume for the Call's arguments.
//
// A Body must be a pure function of the Call's arguments and the ECV values
// it reads: the same inputs give the same joules, or the same failure, and
// nothing outside the Call may influence or record the run. The engine
// relies on it (DESIGN.md §11): the layer cache and the daemon's memo
// replay earlier results, a compiled program skips ECVs the body cannot
// observe, and Monte Carlo runs the body once per distinct assignment it
// drew, not once per sample — so how often, in what order and on which
// goroutine a Body runs is unspecified.
//
// Bodies use the panicking helpers on Call (Num, ECVBool, E, ...) for
// concision; Interface.Eval recovers those panics into errors, following the
// regexp-package pattern — panics never escape the package boundary.
type Body func(c *Call) energy.Joules

// Method is one energy method of an interface: the energy counterpart of a
// public method of the module's functional interface (§3).
type Method struct {
	Name   string
	Params []string // parameter names, for documentation and arity checking
	Doc    string
	Body   Body
	// Source optionally carries the method's source form for an optimizing
	// compiler (internal/opt): the EIL front end stores the *eil.FuncDecl
	// the Body interprets. Go-native methods leave it nil and always run
	// through Body.
	Source any
}

// Interface is an energy interface: an abstraction of a module's energy
// usage, valid for all possible inputs (§3). It carries the module's ECVs,
// its energy methods, and bindings to the interfaces of the lower-level
// resources the module uses.
//
// Interfaces form a tree through bindings; the leaves are hardware energy
// interfaces (whose methods call no further bindings). Construct with New,
// then AddECV/AddMethod/Bind. Interfaces are not safe for concurrent
// mutation; evaluation (Eval) is read-only and safe to call concurrently
// once construction is done.
type Interface struct {
	name     string
	doc      string
	ecvs     []ECV
	methods  map[string]*Method
	order    []string // method insertion order for stable listings
	bindings map[string]*Interface
	bindOrd  []string
	version  uint64 // bumped on every mutation; see Version

	// progs caches compiled programs per method, each tagged with the
	// subtree-version fold it was compiled against (see program.go).
	// Evaluation-time state only: clones start empty, and mutation
	// invalidates implicitly through the fold.
	progs sync.Map
}

// ifaceVersions hands out interface versions: a process-global counter, so
// no two distinct construction states ever share a version. The layer
// cache (LayerCache) keys sub-evaluation results by subtree version, which
// makes invalidation implicit: mutating or rebinding a node gives it (and,
// through the subtree-version fold, its ancestors) a version no cached key
// was ever built from.
var ifaceVersions atomic.Uint64

// New returns an empty interface with the given name.
func New(name string) *Interface {
	return &Interface{
		name:     name,
		methods:  map[string]*Method{},
		bindings: map[string]*Interface{},
		version:  ifaceVersions.Add(1),
	}
}

// Version returns the interface's construction version. Every mutation of
// this node (AddECV, SetECV, AddMethod, Bind) assigns a fresh version, as
// does cloning during Rebind; versions of distinct construction states are
// never equal. Bindings do not propagate versions upward — consumers that
// need a whole-subtree fingerprint (the layer cache) fold child versions
// in themselves.
func (i *Interface) Version() uint64 { return i.version }

// bump assigns this node a fresh version; called by every mutator.
func (i *Interface) bump() { i.version = ifaceVersions.Add(1) }

// Name returns the interface name.
func (i *Interface) Name() string { return i.name }

// Doc returns the interface documentation string.
func (i *Interface) Doc() string { return i.doc }

// SetDoc sets the interface documentation and returns i for chaining.
func (i *Interface) SetDoc(doc string) *Interface {
	i.doc = doc
	return i
}

// AddECV declares an energy-critical variable. It returns an error if the
// ECV is invalid or duplicates an existing name.
func (i *Interface) AddECV(e ECV) error {
	if err := e.validate(); err != nil {
		return err
	}
	for _, have := range i.ecvs {
		if have.Name == e.Name {
			return fmt.Errorf("core: interface %s: duplicate ECV %q", i.name, e.Name)
		}
	}
	i.ecvs = append(i.ecvs, e)
	i.bump()
	return nil
}

// MustECV is AddECV that panics on error; for literal construction.
func (i *Interface) MustECV(e ECV) *Interface {
	if err := i.AddECV(e); err != nil {
		panic(err)
	}
	return i
}

// SetECV replaces the distribution of an existing ECV (resource managers
// specialize ECVs from configuration, §3). It returns an error if the ECV
// does not exist or the replacement is invalid.
func (i *Interface) SetECV(e ECV) error {
	if err := e.validate(); err != nil {
		return err
	}
	for k, have := range i.ecvs {
		if have.Name == e.Name {
			i.ecvs[k] = e
			i.bump()
			return nil
		}
	}
	return fmt.Errorf("core: interface %s: no ECV %q to replace", i.name, e.Name)
}

// ECVs returns the interface's own (non-transitive) ECVs.
func (i *Interface) ECVs() []ECV {
	out := make([]ECV, len(i.ecvs))
	copy(out, i.ecvs)
	return out
}

// AddMethod adds an energy method. It returns an error on duplicate names
// or a nil body.
func (i *Interface) AddMethod(m Method) error {
	if m.Name == "" {
		return fmt.Errorf("core: interface %s: method with empty name", i.name)
	}
	if m.Body == nil {
		return fmt.Errorf("core: interface %s: method %q has nil body", i.name, m.Name)
	}
	if _, dup := i.methods[m.Name]; dup {
		return fmt.Errorf("core: interface %s: duplicate method %q", i.name, m.Name)
	}
	mm := m
	i.methods[m.Name] = &mm
	i.order = append(i.order, m.Name)
	i.bump()
	return nil
}

// MustMethod is AddMethod that panics on error; for literal construction.
func (i *Interface) MustMethod(m Method) *Interface {
	if err := i.AddMethod(m); err != nil {
		panic(err)
	}
	return i
}

// Method returns the named method, or nil.
func (i *Interface) Method(name string) *Method { return i.methods[name] }

// Methods returns method names in declaration order.
func (i *Interface) Methods() []string {
	out := make([]string, len(i.order))
	copy(out, i.order)
	return out
}

// Bind attaches the energy interface of a lower-level resource under a
// local name; method bodies reach it via Call.E(localName, method, ...).
// Binding the same name twice replaces the binding (this is how rebinding
// to new hardware works at a single level; see Rebind for paths). It
// returns an error if the binding would create a cycle.
func (i *Interface) Bind(localName string, lower *Interface) error {
	if lower == nil {
		return fmt.Errorf("core: interface %s: binding %q to nil", i.name, localName)
	}
	if lower.reaches(i) || lower == i {
		return fmt.Errorf("core: interface %s: binding %q to %s creates a cycle",
			i.name, localName, lower.name)
	}
	if _, exists := i.bindings[localName]; !exists {
		i.bindOrd = append(i.bindOrd, localName)
	}
	i.bindings[localName] = lower
	i.bump()
	return nil
}

// MustBind is Bind that panics on error.
func (i *Interface) MustBind(localName string, lower *Interface) *Interface {
	if err := i.Bind(localName, lower); err != nil {
		panic(err)
	}
	return i
}

// Binding returns the interface bound under localName, or nil.
func (i *Interface) Binding(localName string) *Interface { return i.bindings[localName] }

// Bindings returns binding names in declaration order.
func (i *Interface) Bindings() []string {
	out := make([]string, len(i.bindOrd))
	copy(out, i.bindOrd)
	return out
}

// reaches reports whether target is reachable from i through bindings.
func (i *Interface) reaches(target *Interface) bool {
	for _, b := range i.bindings {
		if b == target || b.reaches(target) {
			return true
		}
	}
	return false
}

// Rebind returns a copy of the interface tree with the binding at the given
// dot-separated path replaced by repl. Interfaces on the path are shallow-
// cloned so the original tree is untouched; subtrees off the path are
// shared. An empty path is invalid. This implements Fig. 2's first layered-
// view advantage: "only some of the energy interfaces in the bottom layer
// need to be replaced" when the execution environment changes.
func (i *Interface) Rebind(path string, repl *Interface) (*Interface, error) {
	if path == "" {
		return nil, fmt.Errorf("core: Rebind with empty path")
	}
	parts := strings.Split(path, ".")
	return i.rebind(parts, repl)
}

func (i *Interface) rebind(parts []string, repl *Interface) (*Interface, error) {
	head := parts[0]
	child, ok := i.bindings[head]
	if !ok {
		return nil, fmt.Errorf("core: interface %s has no binding %q", i.name, head)
	}
	clone := i.shallowClone()
	if len(parts) == 1 {
		clone.bindings[head] = repl
	} else {
		sub, err := child.rebind(parts[1:], repl)
		if err != nil {
			return nil, err
		}
		clone.bindings[head] = sub
	}
	if clone.bindings[head].reaches(clone) {
		return nil, fmt.Errorf("core: rebind at %q creates a cycle", head)
	}
	return clone, nil
}

func (i *Interface) shallowClone() *Interface {
	c := New(i.name)
	c.doc = i.doc
	c.ecvs = append([]ECV(nil), i.ecvs...)
	for _, n := range i.order {
		c.methods[n] = i.methods[n]
	}
	c.order = append([]string(nil), i.order...)
	for _, n := range i.bindOrd {
		c.bindings[n] = i.bindings[n]
	}
	c.bindOrd = append([]string(nil), i.bindOrd...)
	return c
}

// QualifiedECV names an ECV by the binding path from the root interface:
// the root's own ECVs have Path ""; an ECV of the interface bound as
// "cache" has Path "cache"; nested bindings join with dots.
type QualifiedECV struct {
	Path string
	ECV  ECV
}

// QualifiedName returns "path.name", or just "name" at the root.
func (q QualifiedECV) QualifiedName() string {
	if q.Path == "" {
		return q.ECV.Name
	}
	return q.Path + "." + q.ECV.Name
}

// TransitiveECVs returns all ECVs reachable from i, with binding-path
// qualification, in deterministic order (own ECVs first, then bindings in
// declaration order, recursively).
func (i *Interface) TransitiveECVs() []QualifiedECV {
	var out []QualifiedECV
	i.collectECVs("", &out)
	return out
}

func (i *Interface) collectECVs(prefix string, out *[]QualifiedECV) {
	for _, e := range i.ecvs {
		*out = append(*out, QualifiedECV{Path: prefix, ECV: e})
	}
	for _, name := range i.bindOrd {
		sub := name
		if prefix != "" {
			sub = prefix + "." + name
		}
		i.bindings[name].collectECVs(sub, out)
	}
}

// Describe renders a human-readable summary of the interface tree: its
// methods, ECVs, and bindings. Developers read energy interfaces to
// understand energy behavior (§2); Describe is the quick structural view.
func (i *Interface) Describe() string {
	var b strings.Builder
	i.describe(&b, 0, "")
	return b.String()
}

func (i *Interface) describe(b *strings.Builder, depth int, bindName string) {
	indent := strings.Repeat("  ", depth)
	if bindName != "" {
		fmt.Fprintf(b, "%s%s -> interface %s\n", indent, bindName, i.name)
	} else {
		fmt.Fprintf(b, "%sinterface %s\n", indent, i.name)
	}
	for _, e := range i.ecvs {
		fmt.Fprintf(b, "%s  ecv %s", indent, e.Name)
		if e.Doc != "" {
			fmt.Fprintf(b, " — %s", e.Doc)
		}
		b.WriteByte('\n')
	}
	for _, mn := range i.order {
		m := i.methods[mn]
		fmt.Fprintf(b, "%s  func E_%s(%s)\n", indent, m.Name, strings.Join(m.Params, ", "))
	}
	names := append([]string(nil), i.bindOrd...)
	sort.Strings(names)
	for _, bn := range names {
		i.bindings[bn].describe(b, depth+1, bn)
	}
}
