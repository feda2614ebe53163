package service

import (
	"container/list"
	"slices"
	"sync"
	"time"

	"m2mjoin/internal/core"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// This file implements the shared build-artifact cache: a bounded LRU
// over the immutable phase-1 artifacts — hash tables, keyed by
// everything that determines their bits (dataset lineage fingerprint,
// relation, key column and selection-mask fingerprint), and SJ build
// sides (exec.BuildSide: an SJ plan's whole phase 1, every non-root
// table and the reduced driver mask), keyed by lineage
// fingerprint, selections and semi-join orders. A hit hands the
// executor the exact tables a fresh build would produce — and, inside
// a table, the bitvector filter any earlier BVP query derived from it —
// so a warm query skips all of phase 1 with bit-identical Stats and
// checksum; eviction merely drops the cache's reference, running
// queries keep probing their copy (artifacts are read-only). The cache
// is also where the tables planning builds to measure edge statistics
// end up (Service.plan): a dataset's first query finds them here.
//
// Versioned datasets (PR 8) re-key artifacts per snapshot: the dataset
// field is the snapshot's lineage fingerprint (storage.Dataset.
// VersionFingerprint, which folds the version number and mutation
// stream into the registered content fingerprint), so two versions of
// one dataset never collide and equal replayed lineages share. The
// serving layer repairs unselected tables onto the new key at commit
// time (see mutate.go) — a build side is not repaired: a new version
// misses it once — and purges keys of retired versions, build sides
// included, through purge.

// artifactKey identifies one cached table. Two queries agree on a key
// exactly when a fresh build would produce a bit-identical table: same
// dataset snapshot (its lineage fingerprint), same relation, same
// join-key column, and the same pushed-down selection set on that
// relation (maskFP, 0 for no selections). The driver has no table, so
// its slot keys SJ build sides instead (queryArtifacts.buildSideKey).
type artifactKey struct {
	dataset uint64
	rel     plan.NodeID
	keyCol  string
	maskFP  uint64
}

// cacheEntry is one resident artifact with its byte charge at insert:
// a table (Table.MemoryBytes, filter projection included), or an SJ
// build side with the snapshot it was reduced on (its BytesCached).
type cacheEntry struct {
	key   artifactKey
	table *hashtable.Table
	build *exec.BuildSide
	snap  *storage.Dataset
	bytes int64
}

// CacheStats is a snapshot of cache-wide counters.
type CacheStats struct {
	// Hits / Misses count lookups across all queries since creation.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Evictions counts entries dropped to respect the byte budget.
	Evictions int64 `json:"evictions"`
	// Entries and Bytes describe current residency; Bytes never
	// exceeds Limit.
	//
	// Bytes counts exactly the resident tables' own heap footprints
	// (Table.MemoryBytes, filter projection included; a table's key
	// column is the relation's and is not charged) and per SJ build
	// side every table it holds plus its driver mask's words
	// (conservative: leaves are charged twice). It deliberately
	// excludes the catalog's memoized plan choices and edge-statistic
	// caches: those are a few KB per dataset, bounded by the catalog
	// size rather than query traffic, and are never evicted — charging
	// them against the artifact budget would shrink the effective cache
	// by a constant without ever influencing an eviction decision. They
	// stay that small because the hash tables planning builds are handed
	// to this cache and dropped from both (Service.plan). Tests pin this
	// accounting (Bytes == sum of resident artifact MemoryBytes, unmoved
	// by re-planning; no table reachable from the catalog alone).
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	Limit   int64 `json:"limit"`
}

// artifactCache is the bounded LRU. All methods are safe for
// concurrent use.
type artifactCache struct {
	mu      sync.Mutex
	limit   int64
	bytes   int64
	order   *list.List // front = most recently used; values are *cacheEntry
	entries map[artifactKey]*list.Element

	hits, misses, evictions int64
}

func newArtifactCache(limit int64) *artifactCache {
	return &artifactCache{
		limit:   limit,
		order:   list.New(),
		entries: make(map[artifactKey]*list.Element),
	}
}

// get returns the entry under key, promoting it to most recently used.
func (c *artifactCache) get(key artifactKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// put inserts an entry, evicting least-recently-used entries until the
// byte budget holds. An artifact larger than the whole budget is not
// admitted (the budget is a hard bound, not a soft target); a racing
// duplicate insert keeps the resident entry (both are bit-identical by
// construction).
func (c *artifactCache) put(e *cacheEntry) {
	// Insert failpoint, armed by the chaos suite. An injected error
	// drops the insert — the cache is strictly best-effort, so the
	// inserting query still succeeds and a later query rebuilds; an
	// injected panic unwinds into the inserting build worker, whose
	// guard fails that one query. Either way the fault fires before
	// the lock, so cache state stays consistent.
	if err := faultinject.Fire(faultinject.SiteCacheInsert); err != nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.bytes > c.limit {
		return
	}
	if _, ok := c.entries[e.key]; ok {
		return
	}
	for c.bytes+e.bytes > c.limit {
		back := c.order.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*cacheEntry)
		c.order.Remove(back)
		delete(c.entries, victim.key)
		c.bytes -= victim.bytes
		c.evictions++
	}
	c.entries[e.key] = c.order.PushFront(e)
	c.bytes += e.bytes
}

// peek returns the entry under key without touching the hit/miss
// counters or the LRU order — the commit-time repair path uses it to
// find the previous version's artifacts without skewing the stats the
// load generator reports.
func (c *artifactCache) peek(key artifactKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		return el.Value.(*cacheEntry)
	}
	return nil
}

// purge drops every entry whose key satisfies pred and returns the
// count — retention of superseded dataset versions: when a version
// falls out of its entry's retention window, all artifact keys minted
// under its lineage fingerprint are purged in one sweep. Purged bytes come off the budget immediately; in-flight
// queries holding the artifacts keep probing them (read-only).
func (c *artifactCache) purge(pred func(artifactKey) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if pred(e.key) {
			c.order.Remove(el)
			delete(c.entries, e.key)
			c.bytes -= e.bytes
			n++
		}
		el = next
	}
	return n
}

// stats snapshots the cache counters.
func (c *artifactCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		Limit:     c.limit,
	}
}

// queryArtifacts adapts the shared cache to one query's exec.Artifacts
// view: it closes over the dataset fingerprint and the per-relation
// selection fingerprints, so the executor's relation-indexed lookups
// resolve to fully qualified cache keys. It is also where the service
// times the builds its cache causes: Table stamps a relation's miss,
// and PutTable — the executor handing back the table it then built —
// observes m2m_artifact_build_seconds{kind="build"} from that stamp.
type queryArtifacts struct {
	svc     *Service
	entry   *datasetEntry
	dataset uint64   // executing snapshot's lineage fingerprint
	maskFPs []uint64 // indexed by NodeID; 0 = no selections

	// missed holds each relation's miss time (zero = not missed),
	// allocated on the query's first miss; the executor builds relations
	// on concurrent workers, hence missMu.
	missMu sync.Mutex
	missed []time.Time
}

func (q *queryArtifacts) key(id plan.NodeID) artifactKey {
	return artifactKey{
		dataset: q.dataset,
		rel:     id,
		keyCol:  q.entry.keyCols[id],
		maskFP:  q.maskFPs[id],
	}
}

func (q *queryArtifacts) Table(id plan.NodeID) *hashtable.Table {
	if e := q.svc.cache.get(q.key(id)); e != nil {
		return e.table
	}
	q.missMu.Lock()
	if q.missed == nil {
		q.missed = make([]time.Time, len(q.maskFPs))
	}
	q.missed[id] = q.svc.now()
	q.missMu.Unlock()
	return nil
}

// PutTable observes the build of a table this query missed — a table
// offered without a miss (a plan-time measurement build) is not one —
// and offers t to the cache unless the snapshot it was built on has
// left its dataset's retention window: a query pinned to a version that
// two commits have since retired finds its keys purged, rebuilds, and
// would otherwise re-insert under a fingerprint no later purge sweeps.
// The check and the insert happen under the writer lock, so no commit
// retires the version in between.
func (q *queryArtifacts) PutTable(id plan.NodeID, t *hashtable.Table) {
	q.missMu.Lock()
	if q.missed != nil && !q.missed[id].IsZero() {
		q.svc.met.buildHist.Observe(q.svc.now().Sub(q.missed[id]))
	}
	q.missMu.Unlock()
	q.put(&cacheEntry{key: q.key(id), table: t, bytes: t.MemoryBytes()})
}

// put offers e to the cache unless the snapshot it was built on has
// left its dataset's retention window (see PutTable).
func (q *queryArtifacts) put(e *cacheEntry) {
	q.entry.verMu.Lock()
	defer q.entry.verMu.Unlock()
	if slices.Contains(q.entry.versions, q.dataset) {
		q.svc.cache.put(e)
	}
}

// buildSideKey keys the SJ build side of a run on q's snapshot: the
// driver's slot, under a fingerprint of the run's selections (in
// request order) and semi-join orders, as BuildSide.fits compares them.
func (q *queryArtifacts) buildSideKey(sels []exec.Selection, semiJoins map[plan.NodeID][]plan.NodeID) artifactKey {
	h := storage.FingerprintUint64(storage.FingerprintSeed, uint64(len(sels)))
	for _, sel := range sels {
		h = storage.FingerprintString(storage.FingerprintUint64(h, uint64(sel.Rel)), sel.Column)
		h = storage.FingerprintUint64(h, uint64(sel.Value))
	}
	for id := range len(q.maskFPs) {
		if order, ok := semiJoins[plan.NodeID(id)]; ok {
			h = storage.FingerprintUint64(storage.FingerprintUint64(h, uint64(id)), uint64(len(order)))
			for _, c := range order {
				h = storage.FingerprintUint64(h, uint64(c))
			}
		}
	}
	return artifactKey{dataset: q.dataset, rel: plan.Root, maskFP: h}
}

// buildSide returns the SJ build side of choice on snap — the cached
// one, or one reduced now under opts (the query's context, workers and
// trace) and offered to the cache — with the lookups it stands for in
// the query's CacheHits / CacheMisses: a fresh one's own, a cached one
// every provider table it holds, all served. One cached for another
// snapshot of equal lineage does not fit, so the query reduces afresh;
// a failed or cancelled reduction offers nothing. The service's one SJ
// phase-1 path, for solo runs and local scatters alike.
func (s *Service) buildSide(snap *storage.Dataset, choice core.PlanChoice, opts exec.Options) (b *exec.BuildSide, hits, misses int64, err error) {
	arts := opts.Artifacts.(*queryArtifacts)
	key := arts.buildSideKey(opts.Selections, choice.SemiJoins)
	if e := s.cache.get(key); e != nil && e.snap == snap {
		st := e.build.Stats()
		return e.build, st.CacheHits + st.CacheMisses, 0, nil
	}
	start := s.now()
	if b, err = core.ReduceBuildSide(snap, choice, opts); err != nil {
		return nil, 0, 0, err
	}
	s.met.buildHist.Observe(s.now().Sub(start))
	st := b.Stats()
	arts.put(&cacheEntry{key: key, build: b, snap: snap, bytes: st.BytesCached})
	return b, st.CacheHits, st.CacheMisses, nil
}

var _ exec.Artifacts = (*queryArtifacts)(nil)
