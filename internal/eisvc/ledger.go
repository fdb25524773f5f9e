package eisvc

import (
	"sort"
	"sync"

	"energyclarity/internal/energy"
)

// Ledger attributes evaluated energy per client and per interface: for
// every answered evaluation it accumulates the returned distribution's
// mean, p99, and worst-case joules under the requesting client's identity
// (the X-Eisvc-Client header) and under the queried interface. This is the
// per-request energy-attribution concern of serving systems ("The Energy
// Blind Spot"): who asked for how many joules of evaluated work, kept as
// a first-class serving metric.
type Ledger struct {
	mu       sync.Mutex
	byClient map[string]*LedgerEntry
	byIface  map[string]*LedgerEntry
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		byClient: map[string]*LedgerEntry{},
		byIface:  map[string]*LedgerEntry{},
	}
}

// Record attributes one answered evaluation.
func (l *Ledger) Record(client, iface string, d energy.Dist, cached bool) {
	mean, p99, worst := d.Mean(), d.Quantile(0.99), d.Max()
	add := func(m map[string]*LedgerEntry, key string) {
		e := m[key]
		if e == nil {
			e = &LedgerEntry{}
			m[key] = e
		}
		e.Requests++
		if cached {
			e.MemoHits++
		}
		e.MeanJ += mean
		e.P99J += p99
		e.WorstJ += worst
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	add(l.byClient, client)
	add(l.byIface, iface)
}

// Snapshot returns copies of both attribution maps.
func (l *Ledger) Snapshot() (clients, ifaces map[string]LedgerEntry) {
	copyOf := func(m map[string]*LedgerEntry) map[string]LedgerEntry {
		out := make(map[string]LedgerEntry, len(m))
		for k, e := range m {
			out[k] = *e
		}
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return copyOf(l.byClient), copyOf(l.byIface)
}

// latencies tracks request latency: exact count/mean/max over the
// lifetime, and p50/p99 over a sliding window of the most recent
// observations (a fixed ring, so memory stays bounded).
type latencies struct {
	mu    sync.Mutex
	ring  []float64
	next  int
	count uint64
	sum   float64
	max   float64
}

const latencyWindow = 1024

func newLatencies() *latencies {
	return &latencies{ring: make([]float64, 0, latencyWindow)}
}

func (l *latencies) observe(ms float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	l.sum += ms
	if ms > l.max {
		l.max = ms
	}
	if len(l.ring) < latencyWindow {
		l.ring = append(l.ring, ms)
		return
	}
	l.ring[l.next] = ms
	l.next = (l.next + 1) % latencyWindow
}

func (l *latencies) snapshot() LatencyStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := LatencyStats{Count: l.count, MaxMs: l.max}
	if l.count > 0 {
		st.MeanMs = l.sum / float64(l.count)
	}
	if len(l.ring) > 0 {
		window := append([]float64(nil), l.ring...)
		sort.Float64s(window)
		st.P50Ms = window[len(window)/2]
		st.P99Ms = window[(len(window)*99)/100]
	}
	return st
}
