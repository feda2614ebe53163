package storage

import (
	"fmt"
	"slices"

	"m2mjoin/internal/plan"
)

// This file is the dataset delta API: versioned snapshots with
// append/delete deltas, the storage half of the engine's incremental
// artifact maintenance.
//
// A Dataset is an immutable snapshot. Mutations are batched through
// Begin/Append/Delete and atomically committed:
//
//	delta := ds.Begin()
//	delta.Append("orders", 7, 42)
//	delta.Delete("orders", 3)
//	v, err := delta.Commit() // v.Dataset is the next snapshot
//
// Commit never modifies the receiver: it clones the slice of relation
// states and rewrites the entries of the relations the batch touches,
// so the successor shares every untouched relation, and the prefix of
// every appended column, with its parent by reference, and in-flight
// queries on the parent keep reading exactly the rows they started
// with — snapshot isolation by copy-on-write column tails.
//
// Every snapshot carries a monotone version number and a lineage
// fingerprint: fp(V+1) = FNV-fold(fp(V), commit payload), O(delta) to
// compute, deterministic across processes replaying the same mutation
// stream, and rooted at the content fingerprint of version 0. The
// serving layer keys its artifact cache on (lineage fingerprint,
// version), so equal histories share artifacts and any divergence
// re-keys them.
//
// Writers must be serialized: at most one Begin/Commit chain may extend
// a given snapshot (the serving layer holds a per-dataset write lock).
// Concurrent readers of any committed snapshot need no synchronization.

// RelationDelta summarizes what one Commit did to one relation — the
// exact information a derived artifact needs to repair itself
// incrementally instead of rebuilding.
type RelationDelta struct {
	// Rel is the relation's tree node.
	Rel plan.NodeID
	// AppendedFrom is the relation's row count before the commit: rows
	// [AppendedFrom, NumRows) are this commit's appends.
	AppendedFrom int
	// Deleted lists the global row indices this commit killed, in
	// application order.
	Deleted []int
	// Compacted reports that the commit advanced the relation's base
	// marker: the packed region now covers every row, and derived
	// artifacts must rebuild rather than repair.
	Compacted bool
}

// Version is the result of one Commit.
type Version struct {
	// Dataset is the committed snapshot.
	Dataset *Dataset
	// Deltas describes the touched relations in ascending NodeID order.
	Deltas []RelationDelta
}

// mutation is one staged append of values, or delete of row, against
// a named relation.
type mutation struct {
	rel    string
	del    bool
	values []int64
	row    int
}

// Delta is an uncommitted mutation batch against one snapshot.
type Delta struct {
	base *Dataset
	muts []mutation
}

// Begin starts a mutation batch against the snapshot. At most one
// batch may be committed per snapshot (single writer); the batch is
// applied atomically by Commit.
func (d *Dataset) Begin() *Delta { return &Delta{base: d} }

// Append adds one row to the named relation. Validation errors are
// deferred to Commit.
func (dl *Delta) Append(rel string, values ...int64) *Delta {
	dl.muts = append(dl.muts, mutation{rel: rel, values: values})
	return dl
}

// Delete marks the global row index of the named relation dead.
// Deleting a row appended earlier in the same batch is allowed (its
// index is the relation's pre-batch row count plus its append rank).
func (dl *Delta) Delete(rel string, row int) *Delta {
	dl.muts = append(dl.muts, mutation{rel: rel, del: true, row: row})
	return dl
}

// shouldCompact is the deterministic compaction policy: a relation is
// compacted — its base marker advanced to cover every row — when its
// pending delta, appended rows plus tombstones in the base region,
// reaches a quarter of the packed base. Depending only on (base,
// pending), every process replaying the same mutation history compacts
// at the same commit, so derived artifacts stay bit-identical however
// they were produced (incremental repair or cold build).
func shouldCompact(base, pending int) bool {
	return pending > 0 && pending*4 >= base
}

// Commit validates and applies the batch, returning the next snapshot.
// The receiver's base snapshot is unchanged. An empty batch is an
// error: version numbers advance only with content.
func (dl *Delta) Commit() (Version, error) {
	d := dl.base
	if len(dl.muts) == 0 {
		return Version{}, fmt.Errorf("storage: empty delta")
	}
	batches, err := d.group(dl.muts)
	if err != nil {
		return Version{}, err
	}
	nd := &Dataset{
		Tree:    d.Tree,
		rels:    slices.Clone(d.rels),
		version: d.version + 1,
		vfp:     dl.lineage(),
		vfpSet:  true,
	}
	v := Version{Dataset: nd}
	// Ascending NodeID, so Version.Deltas (and therefore downstream
	// repair work) is canonical.
	for id, b := range batches {
		if b == nil {
			continue
		}
		var rd RelationDelta
		nd.rels[id], rd = d.rels[id].apply(plan.NodeID(id), b)
		v.Deltas = append(v.Deltas, rd)
	}
	return v, nil
}

// lineage folds the batch into the base snapshot's lineage fingerprint.
// The encoding is canonical (version, then per mutation an op tag, the
// relation name and the payload), so two processes replaying the same
// stream agree on every version's fingerprint.
func (dl *Delta) lineage() uint64 {
	h := FingerprintUint64(dl.base.VersionFingerprint(), dl.base.version+1)
	for _, m := range dl.muts {
		op := uint64(0) // append
		if m.del {
			op = 1
		}
		h = FingerprintString(FingerprintUint64(h, op), m.rel)
		if m.del {
			h = FingerprintUint64(h, uint64(m.row))
			continue
		}
		h = FingerprintUint64(h, uint64(len(m.values)))
		for _, v := range m.values {
			h = FingerprintUint64(h, uint64(v))
		}
	}
	return h
}

// relBatch is one relation's validated share of a batch.
type relBatch struct {
	appends [][]int64
	deleted []int        // in application order
	dead    map[int]bool // deleted, as a set
}

// group validates the batch in application order and splits it by
// relation, indexed by NodeID; a nil entry is an untouched relation.
func (d *Dataset) group(muts []mutation) ([]*relBatch, error) {
	batches := make([]*relBatch, len(d.rels))
	for _, m := range muts {
		id := slices.IndexFunc(d.rels, func(s relState) bool { return s.rel != nil && s.rel.Name() == m.rel })
		if id < 0 {
			return nil, fmt.Errorf("storage: delta references unknown relation %q", m.rel)
		}
		s, b := d.rels[id], batches[id]
		if b == nil {
			b = &relBatch{dead: make(map[int]bool)}
			batches[id] = b
		}
		if !m.del {
			if len(m.values) != s.rel.NumCols() {
				return nil, fmt.Errorf("storage: append to %q has %d values for %d columns",
					m.rel, len(m.values), s.rel.NumCols())
			}
			b.appends = append(b.appends, m.values)
			continue
		}
		n := s.rel.NumRows() + len(b.appends)
		if m.row < 0 || m.row >= n {
			return nil, fmt.Errorf("storage: delete of %q row %d out of range [0, %d)", m.rel, m.row, n)
		}
		if b.dead[m.row] || (m.row < s.rel.NumRows() && s.live != nil && !s.live.Get(m.row)) {
			return nil, fmt.Errorf("storage: delete of %q row %d: row is already dead", m.rel, m.row)
		}
		b.dead[m.row] = true
		b.deleted = append(b.deleted, m.row)
	}
	return batches, nil
}

// apply returns s, the state of relation id, with b applied, and the
// RelationDelta that describes it: appends go to a copy-on-write successor of the
// relation, deletes to a cloned liveness mask, and the base marker
// advances when the pending delta outgrows the base.
func (s relState) apply(id plan.NodeID, b *relBatch) (relState, RelationDelta) {
	oldN := s.rel.NumRows()
	base := oldN - s.appendRows
	rd := RelationDelta{Rel: id, AppendedFrom: oldN, Deleted: b.deleted}
	if len(b.appends) > 0 {
		s.rel = s.rel.cloneAppend(b.appends)
	}
	n := s.rel.NumRows()

	// Liveness: clone-on-write, grown so appended rows start live.
	switch {
	case s.live != nil:
		s.live = s.live.CloneGrown(n)
	case len(b.deleted) > 0:
		s.live = NewBitmap(n)
	}
	for _, row := range b.deleted {
		s.live.Clear(row)
	}

	// Pending: the append region plus the base rows that died since the
	// last compaction.
	pending := n - base
	if s.live != nil {
		liveThen := base
		if s.baseLive != nil {
			liveThen = s.baseLive.Count()
		}
		pending += liveThen - s.live.CountRange(0, base)
	}
	s.appendRows = n - base
	if shouldCompact(base, pending) {
		// Published masks are immutable, so the base-live mask can be
		// the live mask itself.
		s.appendRows, s.baseLive = 0, s.live
		rd.Compacted = true
	}
	return s, rd
}

// cloneAppend returns a copy-on-write successor of r with the given
// rows appended: the struct is fresh but every column shares its
// backing array with r up to r's length, so readers of r are
// unaffected (they never index past their pinned length, and append
// only writes at or beyond it).
func (r *Relation) cloneAppend(rows [][]int64) *Relation {
	nr := &Relation{
		name:  r.name,
		names: r.names,
		index: r.index,
		cols:  make([]Column, len(r.cols)),
	}
	copy(nr.cols, r.cols)
	for _, vals := range rows {
		for c, v := range vals {
			nr.cols[c] = append(nr.cols[c], v)
		}
	}
	return nr
}

// Rebind returns the same snapshot bound to a different join tree: node
// id of tree takes d's relation from[id] — rows, liveness and base
// marker included — joined to its parent on keys[id]. The version number
// carries over; the lineage fingerprint does not (the binding is part of
// it) and falls back to the content fingerprint. Driver re-rooting uses
// this, so a rerooted snapshot hides the same deleted rows its source
// does.
func (d *Dataset) Rebind(tree *plan.Tree, from map[plan.NodeID]plan.NodeID, keys map[plan.NodeID]string) *Dataset {
	nd := NewDataset(tree)
	nd.version = d.version
	for id, old := range from {
		s := d.rels[old]
		s.key = ""
		if id != plan.Root {
			s.key = keys[id]
		}
		nd.rels[id] = s
	}
	return nd
}

// Version returns the snapshot's version number (0 for a dataset that
// has never been committed to).
func (d *Dataset) Version() uint64 { return d.version }

// VersionFingerprint returns the snapshot's lineage fingerprint. For
// version 0 it is the content Fingerprint, computed lazily on first
// call and memoized (callers that might race the first call — the
// serving layer computes it once at registration — must not).
func (d *Dataset) VersionFingerprint() uint64 {
	if !d.vfpSet {
		d.vfp = d.Fingerprint()
		d.vfpSet = true
	}
	return d.vfp
}

// Live returns id's liveness bitmap, or nil when every row is live.
// The bitmap is immutable once the snapshot is committed.
func (d *Dataset) Live(id plan.NodeID) *Bitmap { return d.rels[id].live }

// LiveRows returns the number of live rows of relation id.
func (d *Dataset) LiveRows(id plan.NodeID) int {
	if live := d.Live(id); live != nil {
		return live.Count()
	}
	return d.Relation(id).NumRows()
}

// BaseRows returns id's base marker: rows [0, BaseRows) are the packed
// region of derived artifacts, rows [BaseRows, NumRows) the append
// region. A dataset never committed to is fully packed.
func (d *Dataset) BaseRows(id plan.NodeID) int {
	return d.Relation(id).NumRows() - d.rels[id].appendRows
}

// BaseLive returns id's live-at-last-compaction mask over the base
// region, or nil when every base row was live at compaction.
func (d *Dataset) BaseLive(id plan.NodeID) *Bitmap { return d.rels[id].baseLive }

// HasDeltas reports whether any relation carries uncompacted delta
// state (tombstones or an append region) — the executor's cheap gate
// for the versioned build and mask paths.
func (d *Dataset) HasDeltas() bool {
	return slices.ContainsFunc(d.rels, func(s relState) bool { return s.live != nil || s.appendRows > 0 })
}
