package energy

import (
	"sync"
	"sync/atomic"
)

// Fast kernels behind the Dist combinators. The public semantics live in
// dist.go; this file holds the sorted-merge convolution, the k-way mixture
// merge, the heap-based support compaction, and the pooled scratch buffers
// that keep the hot paths allocation-light once evaluation itself runs in
// parallel (every worker hits these kernels concurrently, so everything
// here is either per-call state or a sync.Pool).

// --- pooled scratch buffers ---

var (
	f64Pool = sync.Pool{New: func() interface{} { s := make([]float64, 0, 256); return &s }}
	intPool = sync.Pool{New: func() interface{} { s := make([]int, 0, 256); return &s }}
)

// scratchOut counts buffers borrowed and not yet returned.
var scratchOut atomic.Int64

// ScratchOutstanding returns how many scratch buffers are borrowed and not
// yet returned. A function that releases its scratch on every path —
// errors and cancellation included — leaves it where it found it, which is
// what leak tests assert.
func ScratchOutstanding() int64 { return scratchOut.Load() }

// BorrowScratch lends a length-n float64 scratch buffer, *p, from a
// shared pool; its contents are unspecified. Give p itself back with
// ReturnScratch — the lent pointer, so a return allocates nothing — once
// any consumer (e.g. Categorical) has copied out of it. Safe for
// concurrent use.
func BorrowScratch(n int) *[]float64 { return borrow[float64](&f64Pool, n) }

// ReturnScratch gives a buffer lent by BorrowScratch back to the pool.
// The caller must not use *p afterwards.
func ReturnScratch(p *[]float64) { giveBack(&f64Pool, p) }

// BorrowInts is BorrowScratch for ints; pair it with ReturnInts.
func BorrowInts(n int) *[]int { return borrow[int](&intPool, n) }

// ReturnInts gives a buffer lent by BorrowInts back to the pool.
func ReturnInts(p *[]int) { giveBack(&intPool, p) }

func borrow[T any](pool *sync.Pool, n int) *[]T {
	scratchOut.Add(1)
	p := pool.Get().(*[]T)
	if cap(*p) < n {
		*p = make([]T, n)
	}
	*p = (*p)[:n]
	return p
}

func giveBack[T any](pool *sync.Pool, p *[]T) {
	pool.Put(p)
	scratchOut.Add(-1)
}

// --- sorted-merge convolution ---

// convolve computes the distribution of X+Y for independent X~a, Y~b by an
// n-way sorted merge: lane i emits a.xs[i]+b.xs[j] for increasing j, and a
// binary min-heap over lanes pops the sums in globally sorted order, so
// equal sums merge on the fly and no O(nm log nm) sort is needed. Both
// inputs must be non-zero. The result support is NOT capped; the caller
// compacts.
func convolve(a, b Dist) Dist {
	n, m := len(a.xs), len(b.xs)
	if n == 1 {
		return b.AddConst(a.xs[0]) // point mass: pure shift
	}
	if m == 1 {
		return a.AddConst(b.xs[0])
	}
	// Lane state: jj[i] is lane i's cursor into b. The heap is keyed by the
	// lane's current sum; initial keys a.xs[i]+b.xs[0] are already sorted
	// (a.xs is increasing), so the array is born a valid heap.
	jjP, laneP, keyP := BorrowInts(n), BorrowInts(n), BorrowScratch(n)
	defer ReturnInts(jjP)
	defer ReturnInts(laneP)
	defer ReturnScratch(keyP)
	jj, lane, key := *jjP, *laneP, *keyP
	for i := 0; i < n; i++ {
		jj[i] = 0
		lane[i] = i
		key[i] = a.xs[i] + b.xs[0]
	}
	size := n
	xs := make([]float64, 0, min(n*m, 4*MaxSupport))
	ps := make([]float64, 0, cap(xs))
	for size > 0 {
		x, l := key[0], lane[0]
		p := a.ps[l] * b.ps[jj[l]]
		if k := len(xs); k > 0 && xs[k-1] == x {
			ps[k-1] += p
		} else {
			xs = append(xs, x)
			ps = append(ps, p)
		}
		jj[l]++
		if jj[l] < m {
			key[0] = a.xs[l] + b.xs[jj[l]]
		} else {
			size--
			key[0], lane[0] = key[size], lane[size]
		}
		siftDown(key, lane, size)
	}
	return Dist{xs: xs, ps: ps}
}

// siftDown restores the min-heap property from the root of key[:size],
// carrying lane along.
func siftDown(key []float64, lane []int, size int) {
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < size && key[l] < key[small] {
			small = l
		}
		if r < size && key[r] < key[small] {
			small = r
		}
		if small == i {
			return
		}
		key[i], key[small] = key[small], key[i]
		lane[i], lane[small] = lane[small], lane[i]
		i = small
	}
}

// mergeComponents computes the mixture of sorted components by a k-way
// merge: a min-heap over components keyed by each component's current
// support value pops values in globally sorted order, merging duplicates.
// comp[i] contributes its support with probabilities scaled by w[i]; zero
// components contribute a single (0, w[i]) point. Weights must already be
// normalized; components with zero weight must be filtered by the caller.
func mergeComponents(w []float64, comps []Dist) Dist {
	k := len(comps)
	point0 := []float64{0}
	point1 := []float64{1}
	laneXS := make([][]float64, k)
	lanePS := make([][]float64, k)
	total := 0
	for i, c := range comps {
		if c.IsZero() {
			laneXS[i], lanePS[i] = point0, point1
		} else {
			laneXS[i], lanePS[i] = c.xs, c.ps
		}
		total += len(laneXS[i])
	}
	jjP, laneP, keyP := BorrowInts(k), BorrowInts(k), BorrowScratch(k)
	defer ReturnInts(jjP)
	defer ReturnInts(laneP)
	defer ReturnScratch(keyP)
	jj, lane, key := *jjP, *laneP, *keyP
	size := 0
	for i := 0; i < k; i++ {
		jj[i] = 0
		key[size], lane[size] = laneXS[i][0], i
		siftUp(key, lane, size)
		size++
	}
	xs := make([]float64, 0, total)
	ps := make([]float64, 0, total)
	for size > 0 {
		x, l := key[0], lane[0]
		p := w[l] * lanePS[l][jj[l]]
		if n := len(xs); n > 0 && xs[n-1] == x {
			ps[n-1] += p
		} else {
			xs = append(xs, x)
			ps = append(ps, p)
		}
		jj[l]++
		if jj[l] < len(laneXS[l]) {
			key[0] = laneXS[l][jj[l]]
		} else {
			size--
			key[0], lane[0] = key[size], lane[size]
		}
		siftDown(key, lane, size)
	}
	return Dist{xs: xs, ps: ps}
}

// siftUp restores the min-heap property after appending at index i.
func siftUp(key []float64, lane []int, i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if key[parent] <= key[i] {
			return
		}
		key[i], key[parent] = key[parent], key[i]
		lane[i], lane[parent] = lane[parent], lane[i]
		i = parent
	}
}

// --- heap-based support compaction ---

// compactMerge merges adjacent support points (probability-weighted) until
// at most limit remain, picking the smallest interior gap first with ties
// broken toward the leftmost pair — the same merge sequence as a quadratic
// rescan, in O(n log n) via a lazily-invalidated pair heap over a doubly
// linked list of live support points.
//
// The extreme support points are pinned: a merge involving the first or
// last live point would move it to a probability-weighted average and pull
// Min()/Max() inward, silently weakening the worst-case bound (§4.1) that
// compaction must preserve. For limit >= 3 only interior pairs merge, so
// Min, Max, and the mean are all exact. For limit == 2 the interior mass
// is split between the two extremes so that the mean is preserved; for
// limit == 1 the single surviving point is the mean (there is nothing to
// pin with one point).
func compactMerge(xs, ps []float64, limit int) ([]float64, []float64) {
	n := len(xs)
	if limit < 1 {
		limit = 1
	}
	if n <= limit {
		return xs, ps
	}
	if limit <= 2 {
		return compactToExtremes(xs, ps, limit)
	}
	prevP, nextP, verP := BorrowInts(n), BorrowInts(n), BorrowInts(n)
	defer ReturnInts(prevP)
	defer ReturnInts(nextP)
	defer ReturnInts(verP)
	prev, next, ver := *prevP, *nextP, *verP // ver: -1 = merged away; else bumped when the value changes
	for i := 0; i < n; i++ {
		prev[i], next[i], ver[i] = i-1, i+1, 0
	}
	next[n-1] = -1

	// Pair heap: candidate merge of node `left` with its successor. Entries
	// are validated lazily on pop against both endpoints' versions.
	type pair struct {
		gap         float64
		left, right int
		vLeft, vRig int
	}
	h := make([]pair, 0, 2*n)
	less := func(a, b pair) bool {
		return a.gap < b.gap || (a.gap == b.gap && a.left < b.left)
	}
	push := func(p pair) {
		h = append(h, p)
		for i := len(h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !less(h[i], h[parent]) {
				break
			}
			h[i], h[parent] = h[parent], h[i]
			i = parent
		}
	}
	pop := func() pair {
		top := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && less(h[l], h[small]) {
				small = l
			}
			if r < len(h) && less(h[r], h[small]) {
				small = r
			}
			if small == i {
				break
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
		return top
	}
	pushPair := func(left int) {
		r := next[left]
		if r == -1 {
			return
		}
		// Pin the extremes: never merge a pair that includes the first or
		// last live point (index 0 and n-1 — neither is ever merged away,
		// so the original indices identify them throughout).
		if left == 0 || r == n-1 {
			return
		}
		push(pair{gap: xs[r] - xs[left], left: left, right: r, vLeft: ver[left], vRig: ver[r]})
	}
	for i := 0; i < n-1; i++ {
		pushPair(i)
	}

	alive := n
	for alive > limit {
		e := pop()
		l, r := e.left, e.right
		if ver[l] != e.vLeft || ver[r] != e.vRig || next[l] != r {
			continue // stale: an endpoint moved or was merged away
		}
		p := ps[l] + ps[r]
		xs[l] = (xs[l]*ps[l] + xs[r]*ps[r]) / p
		ps[l] = p
		ver[l]++
		ver[r] = -1
		next[l] = next[r]
		if next[r] != -1 {
			prev[next[r]] = l
		}
		alive--
		if prev[l] != -1 {
			pushPair(prev[l])
		}
		pushPair(l)
	}

	outXS := make([]float64, 0, alive)
	outPS := make([]float64, 0, alive)
	for i := 0; i != -1; i = next[i] {
		outXS = append(outXS, xs[i])
		outPS = append(outPS, ps[i])
	}
	return outXS, outPS
}

// compactToExtremes collapses a distribution to limit (1 or 2) points
// without moving the bounds inward more than it must. With two points the
// mass sits on the original min and max, split so the mean is preserved
// exactly; with one point, the single survivor is the mean (a one-point
// distribution cannot preserve a range). Caller guarantees len(xs) > limit
// and sorted xs.
func compactToExtremes(xs, ps []float64, limit int) ([]float64, []float64) {
	total, mean := 0.0, 0.0
	for i, p := range ps {
		total += p
		mean += xs[i] * p
	}
	mean /= total
	if limit == 1 {
		return []float64{mean}, []float64{total}
	}
	lo, hi := xs[0], xs[len(xs)-1]
	if hi == lo {
		return []float64{lo}, []float64{total}
	}
	pHi := total * (mean - lo) / (hi - lo)
	if pHi < 0 {
		pHi = 0
	} else if pHi > total {
		pHi = total
	}
	return []float64{lo, hi}, []float64{total - pHi, pHi}
}
