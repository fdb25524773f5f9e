package eisvc

import (
	"fmt"
	"sort"
	"sync"

	"energyclarity/internal/core"
	"energyclarity/internal/eil"
)

// Registry holds the daemon's bound interface stacks: the resource-manager
// side of Fig. 2's ①-④ workflow. Interfaces arrive either as EIL source
// (RegisterSource, the wire path) or as natively-built core.Interface
// values (RegisterInterface, how cmd/eid seeds calibrated hardware
// interfaces that contain Go closures and cannot travel as source).
//
// Every mutation — registering, re-registering, rebinding — assigns the
// touched entry a fresh version from a registry-global counter. Memo keys
// include the version, so a mutation implicitly invalidates every cached
// evaluation of the old interface; stale entries age out of the LRU.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*regEntry
	nextVer uint64
}

// regEntry is one registered interface; a mutation installs a new one.
type regEntry struct {
	name    string // as the registry holds it, for answers to share
	iface   *core.Interface
	source  string // EIL source; "" for native interfaces
	version uint64
	native  bool
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*regEntry{}}
}

// RegisterInterface registers (or replaces) a natively-built interface
// under name and returns its version. The interface must already be fully
// constructed; per core.Interface's contract it must not be mutated after
// registration (evaluation is read-only and concurrency-safe).
func (r *Registry) RegisterInterface(name string, iface *core.Interface) (uint64, error) {
	if iface == nil {
		return 0, fmt.Errorf("eisvc: registering nil interface %q", name)
	}
	if name == "" {
		return 0, fmt.Errorf("eisvc: registering interface with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextVer++
	r.entries[name] = &regEntry{name: name, iface: iface, version: r.nextVer, native: true}
	return r.nextVer, nil
}

// MaxInterfaces caps how many distinct interface names RegisterSource
// will hold. Sources arrive from remote callers and every name costs
// registry and ledger rows for the daemon's lifetime, so the count must
// be bounded; re-registering a name already held never counts against it.
const MaxInterfaces = 4096

// RegisterSource compiles an EIL source file and registers every interface
// it declares, returning their names in declaration order. 'uses' clauses
// resolve against interfaces already registered and against other
// interfaces in the same file. Re-registering a name replaces it with a
// fresh version. A source whose new names would take the registry past
// MaxInterfaces is rejected. On any error nothing is registered.
func (r *Registry) RegisterSource(src string) ([]string, error) {
	f, err := eil.Parse(src)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Compile against a snapshot of the current registry so lower layers
	// registered earlier are visible to this file's 'uses' clauses. Names
	// the file itself declares are left out: re-registering an interface
	// shadows (and then replaces) its previous version.
	declared := map[string]bool{}
	fresh := 0
	for _, id := range f.Interfaces {
		if _, held := r.entries[id.Name]; !held && !declared[id.Name] {
			fresh++
		}
		declared[id.Name] = true
	}
	if n := len(r.entries) + fresh; n > MaxInterfaces {
		return nil, fmt.Errorf("eisvc: registering %d new interface(s) would hold %d, past the limit of %d", fresh, n, MaxInterfaces)
	}
	snapshot := make(map[string]*core.Interface, len(r.entries))
	for name, e := range r.entries {
		if !declared[name] {
			snapshot[name] = e.iface
		}
	}
	compiled, err := eil.CompileFile(f, snapshot)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(f.Interfaces))
	for _, id := range f.Interfaces {
		r.nextVer++
		r.entries[id.Name] = &regEntry{
			name:    id.Name,
			iface:   compiled[id.Name],
			source:  src,
			version: r.nextVer,
		}
		names = append(names, id.Name)
	}
	return names, nil
}

// Get returns the named interface and its current version.
func (r *Registry) Get(name string) (*core.Interface, uint64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	if !ok {
		return nil, 0, false
	}
	return e.iface, e.version, true
}

// lookup is Get for a name held as bytes, which it makes no string of.
func (r *Registry) lookup(name []byte) *regEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.entries[string(name)]
}

// Source returns the EIL source the named interface was registered from;
// ok is false if the interface is unknown, and source is empty for native
// interfaces.
func (r *Registry) Source(name string) (source string, native, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, found := r.entries[name]
	if !found {
		return "", false, false
	}
	return e.source, e.native, true
}

// Rebind replaces the interface bound at the dot-separated path inside
// name with the registered interface target, and returns name's new
// version. The original tree is untouched (core.Interface.Rebind clones
// the path), so evaluations in flight keep their snapshot.
func (r *Registry) Rebind(name, path, target string) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[name]
	if !ok {
		return 0, fmt.Errorf("eisvc: no interface %q", name)
	}
	t, ok := r.entries[target]
	if !ok {
		return 0, fmt.Errorf("eisvc: no rebind target %q", target)
	}
	rebound, err := e.iface.Rebind(path, t.iface)
	if err != nil {
		return 0, err
	}
	r.nextVer++
	r.entries[name] = &regEntry{
		name:    name,
		iface:   rebound,
		source:  e.source,
		version: r.nextVer,
		native:  e.native,
	}
	return r.nextVer, nil
}

// RegistryEntry is one interface in a replication snapshot. The Iface
// pointer is shared, not deep-copied: core.Interface is immutable after
// registration (evaluation is read-only), so fleet nodes in one process
// can serve the same tree concurrently.
type RegistryEntry struct {
	Name    string
	Iface   *core.Interface
	Source  string // EIL source; "" for native interfaces
	Version uint64
	Native  bool
}

// RegistrySnapshot is a point-in-time copy of a registry, the unit of
// fleet replication (internal/fleet): every register/rebind version bump
// on the primary piggybacks a snapshot onto the mutation, and replicas
// merge it with ApplySnapshot.
type RegistrySnapshot struct {
	// NextVersion is the primary's version counter; replicas advance to at
	// least this so versions they assign later never collide backwards.
	NextVersion uint64
	Entries     []RegistryEntry
}

// Snapshot copies the registry for replication. Entries are sorted by
// name so snapshots are deterministic.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	snap := RegistrySnapshot{NextVersion: r.nextVer}
	for name, e := range r.entries {
		snap.Entries = append(snap.Entries, RegistryEntry{
			Name:    name,
			Iface:   e.iface,
			Source:  e.source,
			Version: e.version,
			Native:  e.native,
		})
	}
	sort.Slice(snap.Entries, func(i, j int) bool { return snap.Entries[i].Name < snap.Entries[j].Name })
	return snap
}

// ApplySnapshot merges a replication snapshot: every entry whose version
// is newer than the local one (or missing locally) is installed, and the
// version counter advances to at least the snapshot's. The merge is
// monotone — applying older or duplicate snapshots is a no-op — so
// replicas converge no matter how deliveries interleave, and an in-flight
// rebind on the receiving node can never be clobbered by a stale copy of
// itself. It returns how many entries were installed.
//
// Version equality across nodes holds only when every mutation funnels
// through one serializing primary (the fleet router's discipline); nodes
// mutated directly assign versions from their own counter and are on
// their own.
func (r *Registry) ApplySnapshot(snap RegistrySnapshot) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := 0
	for _, e := range snap.Entries {
		if e.Iface == nil || e.Name == "" {
			continue
		}
		if have, ok := r.entries[e.Name]; ok && have.version >= e.Version {
			continue
		}
		r.entries[e.Name] = &regEntry{
			name:    e.Name,
			iface:   e.Iface,
			source:  e.Source,
			version: e.Version,
			native:  e.Native,
		}
		applied++
	}
	if snap.NextVersion > r.nextVer {
		r.nextVer = snap.NextVersion
	}
	return applied
}

// List returns info for every registered interface, sorted by name.
func (r *Registry) List() []InterfaceInfo {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]InterfaceInfo, 0, len(r.entries))
	for name, e := range r.entries {
		out = append(out, infoFor(name, e.version, e.iface, e.native))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered interfaces.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.entries)
}
