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
//
// A client names itself, so the client map is remote input: it holds at
// most maxLedgerClients distinct ids, and every id that arrives after that
// is attributed to the one overflowClient row — nothing is dropped, so the
// client rows still sum to the interface rows and to the node's total.
type Ledger struct {
	mu       sync.Mutex
	byClient map[string]*LedgerEntry
	byIface  map[string]*LedgerEntry
}

const (
	maxLedgerClients = 1024
	overflowClient   = "(other)"
)

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		byClient: map[string]*LedgerEntry{},
		byIface:  map[string]*LedgerEntry{},
	}
}

// Record attributes one answered evaluation.
func (l *Ledger) Record(client, iface string, d energy.Dist, cached bool) {
	l.record(client, iface, d.Mean(), d.Quantile(0.99), d.Max(), cached)
}

// record is Record for a caller that already holds the three numbers (the
// server reads them off the answer's wire form).
func (l *Ledger) record(client, iface string, mean, p99, worst float64, cached bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	c := l.byClient[client]
	if c == nil {
		if len(l.byClient) >= maxLedgerClients {
			client = overflowClient
		}
		c = ledgerRow(l.byClient, client)
	}
	for _, e := range [2]*LedgerEntry{c, ledgerRow(l.byIface, iface)} {
		e.Requests++
		if cached {
			e.MemoHits++
		}
		e.MeanJ += mean
		e.P99J += p99
		e.WorstJ += worst
	}
}

// ledgerRow returns m's row for key, adding an empty one if there is none.
func ledgerRow(m map[string]*LedgerEntry, key string) *LedgerEntry {
	e := m[key]
	if e == nil {
		e = &LedgerEntry{}
		m[key] = e
	}
	return e
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

// attributed sums the client rows' mean and p99 joules in client-id
// order. Float addition is not associative, so a sum in map order could
// differ between two reads of the same rows.
func attributed(clients map[string]LedgerEntry) (meanJ, p99J float64) {
	ids := make([]string, 0, len(clients))
	for id := range clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		meanJ += clients[id].MeanJ
		p99J += clients[id].P99J
	}
	return meanJ, p99J
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
