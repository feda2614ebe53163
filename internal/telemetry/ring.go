package telemetry

import (
	"sync"
	"time"
)

// TraceRecord is one finished query trace as kept by the recent-trace
// ring and served at /v1/trace; a slow query's record, without its
// tree, is also its slow-query log line.
type TraceRecord struct {
	Time     time.Time `json:"time"`
	Dataset  string    `json:"dataset"`
	Strategy string    `json:"strategy,omitempty"`
	Class    string    `json:"class,omitempty"` // error class, "" on success
	// TotalMillis is the end-to-end latency: planning, queueing and
	// execution.
	TotalMillis  float64 `json:"totalMillis"`
	QueuedMillis float64 `json:"queuedMillis"`
	// PhaseMillis, set on slow records, sums span durations by span
	// name, the root excluded. Spans that overlap (parallel shards)
	// add up, so the sum can exceed TotalMillis.
	PhaseMillis map[string]float64 `json:"phaseMillis,omitempty"`
	Slow        bool               `json:"slow,omitempty"`
	Root        *SpanNode          `json:"trace,omitempty"`
}

// Ring is a bounded ring of recent trace records: constant memory,
// newest-first snapshots. Safe for concurrent use.
type Ring struct {
	mu   sync.Mutex
	buf  []TraceRecord
	next int
	n    int
}

// DefaultRingSize bounds the in-memory recent-trace ring.
const DefaultRingSize = 64

// NewRing creates a ring keeping the last capacity records
// (capacity <= 0 uses DefaultRingSize).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Ring{buf: make([]TraceRecord, capacity)}
}

// Add records one trace, evicting the oldest when full.
func (r *Ring) Add(rec TraceRecord) {
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.mu.Unlock()
}

// Len returns the number of records currently held.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot returns up to limit records, newest first (limit <= 0
// returns all).
func (r *Ring) Snapshot(limit int) []TraceRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.n
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]TraceRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + 2*len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}
