package workload

import (
	"fmt"
	"math/bits"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// This file implements driver re-rooting: the paper's optimization
// algorithms fix a driver relation and are "ran once for each choice
// of the driver relation to find the overall optimal plan" (Section
// 2.1). Re-rooting reverses some tree edges; the join key column of an
// edge is shared by both relations, so only the probe direction — and
// with it the edge's (m, fo) — changes. The reversed statistics are
// measured from the data.

// EdgeStatsCache memoizes measured edge statistics by probe direction.
// An undirected join edge has exactly two probe directions — (parent
// relation, child relation, key) and its reverse — so driver
// enumeration over n candidates needs at most 2(n-1) measurements in
// total, not O(n) per candidate. A nil cache measures directly. The
// cache is keyed by snapshot state identity — the relations and their
// liveness bitmaps, both copy-on-write — so rerooted datasets, which
// share them, hit across reroots, and a later version of a touched
// relation never does.
//
// Measuring an edge builds the child's whole hash table in the
// executor's own shape and count-probes it with the live parent keys —
// all of them up to 16 384, an 8 192-row systematic sample above (see
// measureEdge); the entry keeps that table beside the statistics so the
// plan that was costed on them can hand it to execution instead of
// building it again (Tables, core.PlanChoice).
// The tables are the bulk of a query's phase-1 memory: a cache that
// outlives one plan-then-execute must drop them with ReleaseTables once
// they have been handed on. Not safe for concurrent use.
type EdgeStatsCache struct {
	entries      map[edgeDirection]edgeEntry
	hits, misses int
}

// edgeDirection identifies one probe direction of an undirected edge on
// one snapshot state of its two relations.
type edgeDirection struct {
	parent, child         *storage.Relation
	parentLive, childLive *storage.Bitmap
	key                   string
}

func directionOf(ds *storage.Dataset, parent, child plan.NodeID, key string) edgeDirection {
	return edgeDirection{
		parent: ds.Relation(parent), child: ds.Relation(child),
		parentLive: ds.Live(parent), childLive: ds.Live(child),
		key: key,
	}
}

// edgeEntry is one measured direction: its statistics and, until
// released, the child-side table they were counted with.
type edgeEntry struct {
	stats plan.EdgeStats
	table *hashtable.Table
}

// NewEdgeStatsCache returns an empty cache.
func NewEdgeStatsCache() *EdgeStatsCache {
	return &EdgeStatsCache{entries: make(map[edgeDirection]edgeEntry)}
}

// MeasureEdge returns the measured (m, fo) for probing from ds's
// relation parent into its relation child on the shared key column —
// exact to 16 384 live parent rows, an 8 192-row systematic sample above
// (see measureEdge) — measuring on the first request per direction and
// replaying the cached value afterwards.
func (c *EdgeStatsCache) MeasureEdge(ds *storage.Dataset, parent, child plan.NodeID, key string) plan.EdgeStats {
	if c == nil {
		st, _ := measureEdge(ds, parent, child, key, measureSample)
		return st
	}
	k := directionOf(ds, parent, child, key)
	if e, ok := c.entries[k]; ok {
		c.hits++
		return e.stats
	}
	st, tbl := measureEdge(ds, parent, child, key, measureSample)
	c.entries[k] = edgeEntry{stats: st, table: tbl}
	c.misses++
	return st
}

// Tables returns, indexed by NodeID, the hash table each of ds's tree
// edges was measured with — the table of the child relation on its
// parent-join key under ds's base/live masks, exactly what the executor
// builds for an unselected relation. Entries are nil for the root, for
// edges this cache has not measured on this snapshot and for released
// tables.
func (c *EdgeStatsCache) Tables(ds *storage.Dataset) []*hashtable.Table {
	t := ds.Tree
	out := make([]*hashtable.Table, t.Len())
	for _, id := range t.NonRoot() {
		out[id] = c.entries[directionOf(ds, t.Parent(id), id, ds.KeyColumn(id))].table
	}
	return out
}

// ReleaseTables drops every held table, keeping the statistics: later
// requests for a measured direction still hit, without a table.
func (c *EdgeStatsCache) ReleaseTables() {
	for k, e := range c.entries {
		if e.table != nil {
			c.entries[k] = edgeEntry{stats: e.stats}
		}
	}
}

// Hits returns the number of measurements served from the cache.
func (c *EdgeStatsCache) Hits() int { return c.hits }

// Misses returns the number of actual data scans performed.
func (c *EdgeStatsCache) Misses() int { return c.misses }

// Reroot returns a new dataset whose join tree is rooted at newRoot.
// Node IDs are reassigned (the new driver becomes plan.Root); the
// returned mapping translates old node IDs to new ones. All edge
// statistics of the new tree are measured from the data in the new
// probe direction.
func Reroot(ds *storage.Dataset, newRoot plan.NodeID) (*storage.Dataset, map[plan.NodeID]plan.NodeID) {
	return RerootCached(ds, newRoot, nil)
}

// RerootCached is Reroot with edge statistics served through cache
// (nil measures directly): rerooting every candidate driver with a
// shared cache measures each edge direction exactly once.
func RerootCached(ds *storage.Dataset, newRoot plan.NodeID, cache *EdgeStatsCache) (*storage.Dataset, map[plan.NodeID]plan.NodeID) {
	old := ds.Tree
	if int(newRoot) < 0 || int(newRoot) >= old.Len() {
		panic(fmt.Sprintf("workload: Reroot: node %d out of range", newRoot))
	}

	// Undirected adjacency with the key column of each edge. The key
	// column is stored on the old child side.
	type adj struct {
		other plan.NodeID
		key   string
	}
	neighbors := make(map[plan.NodeID][]adj, old.Len())
	for _, c := range old.NonRoot() {
		p := old.Parent(c)
		k := ds.KeyColumn(c)
		neighbors[p] = append(neighbors[p], adj{c, k})
		neighbors[c] = append(neighbors[c], adj{p, k})
	}

	newTree := plan.NewTree(old.Name(newRoot))
	mapping := map[plan.NodeID]plan.NodeID{newRoot: plan.Root}
	from := map[plan.NodeID]plan.NodeID{plan.Root: newRoot} // mapping, inverted
	newKey := map[plan.NodeID]string{}

	// BFS from the new root, measuring stats parent->child as we go.
	type frame struct {
		oldID  plan.NodeID
		oldPar plan.NodeID
		has    bool
	}
	queue := []frame{{oldID: newRoot}}
	for len(queue) > 0 {
		f := queue[0]
		queue = queue[1:]
		for _, a := range neighbors[f.oldID] {
			if f.has && a.other == f.oldPar {
				continue
			}
			st := cache.MeasureEdge(ds, f.oldID, a.other, a.key)
			id := newTree.AddChild(mapping[f.oldID], st, old.Name(a.other))
			mapping[a.other] = id
			from[id] = a.other
			newKey[id] = a.key
			queue = append(queue, frame{oldID: a.other, oldPar: f.oldID, has: true})
		}
	}

	out := ds.Rebind(newTree, from, newKey)
	if err := out.Validate(); err != nil {
		panic(fmt.Sprintf("workload: Reroot produced invalid dataset: %v", err))
	}
	return out, mapping
}

const (
	// measureChunk is the probe batch of measureEdge — the executor's
	// driver chunk size.
	measureChunk = 2048
	// measureSample is the number of live parent rows measureEdge
	// count-probes per edge once there are more than twice as many.
	measureSample = 8192
)

// measureEdge computes (m, fo) for probing from ds's relation parent
// into its relation child on the shared key column, the way the executor
// would: it builds the child's table in the versioned shape exec builds
// for an unselected relation (hashtable.BuildVersioned over the
// snapshot's base/live masks — bit for bit the same table) and
// count-probes it with the live parent keys. Deleted rows on either side
// are therefore invisible, as they are to a query. Up to 2·sample live
// parent rows every one is probed and the statistics are exact; above,
// a systematic sample: the live rows at live-order positions 0, s, 2s, …
// with s = ⌈live/sample⌉ (the paper estimates (m, fo) from samples,
// Section 3.2). The table is returned so the caller can hand it to
// execution; production passes sample = measureSample.
func measureEdge(ds *storage.Dataset, parent, child plan.NodeID, key string, sample int) (plan.EdgeStats, *hashtable.Table) {
	tbl := hashtable.BuildVersioned(ds.Relation(child), key,
		ds.BaseRows(child), ds.BaseLive(child), ds.Live(child), 1, nil)
	parentKeys := ds.Relation(parent).Column(key)
	stride := 1
	if n := ds.LiveRows(parent); n > 2*sample {
		stride = (n + sample - 1) / sample
	}
	keys := make([]int64, 0, measureChunk)
	counts := make([]int32, measureChunk)
	var probed, matched, totalMatches int64
	flush := func() {
		tbl.ProbeCounts(keys, nil, counts[:len(keys)])
		for _, n := range counts[:len(keys)] {
			if n > 0 {
				matched++
				totalMatches += int64(n)
			}
		}
		probed += int64(len(keys))
		keys = keys[:0]
	}
	everyNthLive(ds.Live(parent), len(parentKeys), stride, func(row int) {
		if keys = append(keys, parentKeys[row]); len(keys) == measureChunk {
			flush()
		}
	})
	flush()
	return edgeStats(probed, matched, totalMatches), tbl
}

// everyNthLive calls fn, in ascending order, for the live rows of an
// n-row relation at live-order positions 0, stride, 2·stride, …; a nil
// live mask means every row is live. Words holding no sampled row are
// skipped by their popcount.
func everyNthLive(live *storage.Bitmap, n, stride int, fn func(row int)) {
	if live == nil {
		for row := 0; row < n; row += stride {
			fn(row)
		}
		return
	}
	skip := 0 // live rows to pass before the next sampled one
	for wi, w := range live.Words() {
		if c := bits.OnesCount64(w); skip >= c {
			skip -= c
			continue
		}
		for ; w != 0; w &= w - 1 {
			if skip == 0 {
				fn(wi<<6 + bits.TrailingZeros64(w))
				skip = stride
			}
			skip--
		}
	}
}

// edgeStats turns the counts of one measured direction — parent rows
// probed, how many of them found a match, and the matches in total —
// into (m, fo), inside the model's valid ranges: an edge nothing matched
// on gets a match probability just below one in 2·rows instead of zero.
func edgeStats(parentRows, matched, totalMatches int64) plan.EdgeStats {
	st := plan.EdgeStats{M: 1.0 / float64(2*parentRows+2), Fo: 1}
	if matched > 0 {
		st.M = float64(matched) / float64(parentRows)
		st.Fo = float64(totalMatches) / float64(matched)
	}
	if st.M > 1 {
		st.M = 1
	}
	if st.Fo < 1 {
		st.Fo = 1
	}
	return st
}
