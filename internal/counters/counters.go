// Package counters holds the tree's one counter idiom: a counter set is a
// struct of uint64 counters and nothing else, also the form it is reported
// in. Its owner bumps its live copy with atomic.AddUint64 and reads it
// only through Add.
package counters

import (
	"sync/atomic"
	"unsafe"
)

// Add adds every counter of src, read atomically, into dst: into a zero
// dst, a snapshot of a live src. It views both as their uint64 fields in
// order, the layout eisvc's TestCounterSetsAreWords holds every set to. A
// live set must be 64-bit aligned, as the first word of an allocated
// struct or of a global is.
func Add[T any](dst, src *T) {
	words := func(c *T) []uint64 { return unsafe.Slice((*uint64)(unsafe.Pointer(c)), unsafe.Sizeof(*c)/8) }
	d, s := words(dst), words(src)
	for i := range d {
		d[i] += atomic.LoadUint64(&s[i])
	}
}
