package exec

import (
	"sync"

	"m2mjoin/internal/buf"
	"m2mjoin/internal/factor"
	"m2mjoin/internal/hashtable"
)

// This file is the phase-2 scratch and the process-wide free list it
// is borrowed from. A run is short — a warm served query is about ten
// driver chunks — so buffers that reach steady state during the first
// chunk and are dropped at merge cost more to allocate than to use.
// scan borrows one scratch per (worker slot, member) and hands it back
// after the merge, so the next run, whatever its tree, strategy or
// chunk size, starts where this one stopped growing.
//
// Reuse is invisible for the reason reuse between two chunks of one
// run already was: every buffer is read only below the length the
// current chunk wrote.

// scratch is every buffer a chunk loop grows. It holds sizes, never
// meaning: every buffer holds plain row indices, keys, counts or flags,
// so nothing in a parked scratch refers to the run that grew it. (The
// factor chunk holds its emit callback only during an Expand, and a run
// that panicked inside one is never parked.)
type scratch struct {
	// rows is the scan's driver buffer: for the scratch of slot 0,
	// member 0 under a driver mask, the surviving driver rows of the
	// whole scan (every chunk is a sub-slice); otherwise, for member 0
	// of each slot, the chunk's [lo, hi) row range spelled out.
	rows []int32

	// Shared probe scratch; lanes carries each STD match's input lane
	// through the filter pass.
	keys  []int64
	probe hashtable.ProbeResult
	lanes []int32

	// tupleBuf holds the canonical-layout tuple during emission.
	tupleBuf []int32

	// STD scratch: two column sets (join-order layout) that ping-pong
	// between input and output of each join.
	colsA, colsB [][]int32

	// COM scratch: the reusable factor chunk. nodes[id] is the chunk's
	// node for relation id — the chunk recycles one node per NodeID for
	// its whole life — kept so bytes can see buffers of relations the
	// last chunk, or the last run's tree, did not join.
	chunk *factor.Chunk
	nodes []*factor.Node
}

// The free list's two bounds.
const (
	// maxParked bounds the parked scratches. A run borrows one per
	// worker slot (times the shards of a scatter), so 32 covers eight
	// concurrent four-shard scatters or sixteen two-worker queries —
	// what a default service (MaxConcurrent = GOMAXPROCS) admits at once
	// on eight cores; beyond it a scratch is dropped and the next run
	// grows its own.
	maxParked = 32
	// maxParkedBytes is the size above which a scratch is dropped
	// rather than parked, so one blow-up query cannot leave its
	// high-water mark resident: maxParked × maxParkedBytes (64 MiB) is
	// the most the list can ever pin. On the benchmark's datasets a
	// serve query's scratch is 0.06–0.5 MiB and the blow-up regime's
	// factorized plans grow 0.7–1.3 MiB per worker, all parked; that
	// regime's flat STD intermediates run to several MiB and are
	// dropped, which is what every scratch was before the list.
	maxParkedBytes = 2 << 20
)

// free is the process-wide list of parked scratches: a mutex-guarded
// LIFO, so the scratch a run gets is the one most recently in use
// (likeliest in cache, sized by the latest query). Not a sync.Pool: a
// pool is emptied every second GC cycle, and a workload that collects
// about once per query — adhoc_blowup does — would allocate its scratch
// again every query and pay for the pool besides (measured: +4–10 %
// cpu_ms_per_query there with a pool, none with the list).
var free struct {
	sync.Mutex
	list []*scratch
}

// borrowScratch takes the most recently parked scratch, or a new one.
func borrowScratch() *scratch {
	free.Lock()
	defer free.Unlock()
	if n := len(free.list); n > 0 {
		s := free.list[n-1]
		free.list[n-1] = nil
		free.list = free.list[:n-1]
		return s
	}
	return &scratch{}
}

// park hands a scratch back after its run finished cleanly. It is
// dropped instead when it grew past maxParkedBytes or the list is full.
func (s *scratch) park() {
	if s.bytes() > maxParkedBytes {
		return
	}
	free.Lock()
	defer free.Unlock()
	if len(free.list) < maxParked {
		free.list = append(free.list, s)
	}
}

// bind sizes the per-relation buffers for a run over nrel relations.
// Outer slices grow without losing the inner buffers earlier runs grew.
func (s *scratch) bind(nrel int, factorized bool) {
	s.tupleBuf = buf.Grow(s.tupleBuf, nrel)
	if factorized {
		if s.chunk == nil {
			s.chunk = factor.NewChunk(nil)
		}
		s.nodes = growKeep(s.nodes, nrel)
	} else {
		s.colsA = growKeep(s.colsA, nrel)
		s.colsB = growKeep(s.colsB, nrel)
	}
}

// growKeep returns s with length n, keeping every element up to its
// capacity (buf.Grow would drop them on reallocation).
func growKeep[T any](s []T, n int) []T {
	if cap(s) < n {
		grown := make([]T, n)
		copy(grown, s[:cap(s)])
		return grown
	}
	return s[:n]
}

// bytes returns the scratch's resident size: the capacity of every
// buffer it owns. The factor nodes' unexported per-row scratch (a
// uint64 per row — CountOutput's weights or Expand's terms — grown with
// buf.Grow's quarter headroom) is bounded from the row capacity.
func (s *scratch) bytes() int {
	n := 4 * (cap(s.rows) + cap(s.tupleBuf) + cap(s.lanes) +
		cap(s.probe.Counts) + cap(s.probe.Offsets) + cap(s.probe.Rows))
	n += 8 * cap(s.keys)
	for _, col := range s.colsA[:cap(s.colsA)] {
		n += 4 * cap(col)
	}
	for _, col := range s.colsB[:cap(s.colsB)] {
		n += 4 * cap(col)
	}
	for _, nd := range s.nodes[:cap(s.nodes)] {
		if nd != nil {
			n += 4*(cap(nd.Rows)+cap(nd.ParentRow)+cap(nd.Counts)+cap(nd.Offsets)) + cap(nd.Live)
			n += 8 * (cap(nd.Rows) + cap(nd.Rows)/4 + 8)
		}
	}
	return n
}
