package storage

import (
	"fmt"

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
// Commit never modifies the receiver: it returns a new *Dataset that
// shares untouched relations (and the untouched prefix of every
// appended column) with its parent by reference, so in-flight queries
// on the parent keep reading exactly the rows they started with —
// snapshot isolation by copy-on-write column tails. Appends extend
// columns with Go's append (readers of the parent never index past
// their pinned length); deletes never touch column data at all, they
// clear bits in a cloned per-relation liveness bitmap.
//
// Every snapshot carries a monotone version number and a lineage
// fingerprint: fp(V+1) = FNV-fold(fp(V), commit payload), O(delta) to
// compute, deterministic across processes replaying the same mutation
// stream, and rooted at the content fingerprint of version 0. The
// serving layer keys its artifact cache on (lineage fingerprint,
// version), so equal histories share artifacts and any divergence
// re-keys them.
//
// Physical rows are never removed and row indices never shift — a
// deleted row stays in its column at its index, dead. What "compaction"
// advances is the per-relation base marker: rows [0, BaseRows) with the
// BaseLive mask are the packed region derived artifacts (hash tables,
// filters) build their sorted layout over, rows [BaseRows, NumRows) are
// the append region they maintain incrementally. When a relation's
// pending delta (appended rows + tombstones in the base region) reaches
// a quarter of the base, Commit advances the marker — a deterministic
// function of the mutation history, so every replica compacts at the
// same version and derived artifacts stay bit-identical however they
// were produced (incremental repair or cold build).
//
// Writers must be serialized: at most one Begin/Commit chain may extend
// a given snapshot (the serving layer holds a per-dataset write lock).
// Concurrent readers of any committed snapshot need no synchronization.

// MutationOp is the kind of one mutation.
type MutationOp uint8

const (
	// OpAppend appends one row to a relation.
	OpAppend MutationOp = iota
	// OpDelete marks one row of a relation dead.
	OpDelete
)

// Mutation is one append or delete against a named relation, the unit
// of the delta API and of serialized mutation streams (cmd/m2mdata
// -mutate, the service's /v1/mutate).
type Mutation struct {
	Op  MutationOp
	Rel string
	// Values is the appended row (OpAppend; must match the relation's
	// column count).
	Values []int64
	// Row is the global row index to delete (OpDelete).
	Row int
}

// foldMutation folds one mutation into a lineage fingerprint. The
// encoding is canonical (op tag, relation name, payload), so two
// processes replaying the same stream agree on every version's
// fingerprint.
func foldMutation(h uint64, m Mutation) uint64 {
	h = FingerprintUint64(h, uint64(m.Op))
	h = FingerprintString(h, m.Rel)
	if m.Op == OpAppend {
		h = FingerprintUint64(h, uint64(len(m.Values)))
		for _, v := range m.Values {
			h = FingerprintUint64(h, uint64(v))
		}
	} else {
		h = FingerprintUint64(h, uint64(m.Row))
	}
	return h
}

// RelationDelta summarizes what one Commit did to one relation — the
// exact information a derived artifact needs to repair itself
// incrementally instead of rebuilding.
type RelationDelta struct {
	// Rel is the relation's tree node.
	Rel plan.NodeID
	// AppendedFrom is the relation's row count before the commit: rows
	// [AppendedFrom, NumRows) are this commit's appends.
	AppendedFrom int
	// Appended is the number of appended rows.
	Appended int
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
	// Number is the snapshot's monotone version number (the base
	// dataset is version 0).
	Number uint64
	// Fingerprint is the snapshot's lineage fingerprint.
	Fingerprint uint64
	// Dataset is the committed snapshot.
	Dataset *Dataset
	// Deltas describes the touched relations in ascending NodeID order.
	Deltas []RelationDelta
}

// Delta is an uncommitted mutation batch against one snapshot.
type Delta struct {
	base         *Dataset
	muts         []Mutation
	forceCompact bool
	err          error
}

// Begin starts a mutation batch against the snapshot. At most one
// batch may be committed per snapshot (single writer); the batch is
// applied atomically by Commit.
func (d *Dataset) Begin() *Delta {
	return &Delta{base: d}
}

// Append adds one row to the named relation. Validation errors are
// deferred to Commit.
func (dl *Delta) Append(rel string, values ...int64) *Delta {
	dl.muts = append(dl.muts, Mutation{Op: OpAppend, Rel: rel, Values: values})
	return dl
}

// Delete marks the global row index of the named relation dead.
// Deleting a row appended earlier in the same batch is allowed (its
// index is the relation's pre-batch row count plus its append rank).
func (dl *Delta) Delete(rel string, row int) *Delta {
	dl.muts = append(dl.muts, Mutation{Op: OpDelete, Rel: rel, Row: row})
	return dl
}

// Apply adds a pre-built mutation (the replay entry point for
// serialized streams).
func (dl *Delta) Apply(m Mutation) *Delta {
	dl.muts = append(dl.muts, m)
	return dl
}

// ForceCompact makes Commit advance every touched relation's base
// marker regardless of the threshold — the deterministic "compact now"
// knob for tests and tooling.
func (dl *Delta) ForceCompact() *Delta {
	dl.forceCompact = true
	return dl
}

// shouldCompact is the deterministic compaction policy: a relation is
// compacted when its pending delta — appended rows plus tombstones in
// the base region — reaches a quarter of the packed base. Depending
// only on (base, pending), every process replaying the same mutation
// history compacts at the same commit.
func shouldCompact(base, pending int) bool {
	return pending > 0 && pending*4 >= base
}

// relByName finds the tree node bound to a relation name.
func (d *Dataset) relByName(name string) (plan.NodeID, bool) {
	for i := 0; i < d.Tree.Len(); i++ {
		id := plan.NodeID(i)
		if r, ok := d.rels[id]; ok && r.Name() == name {
			return id, true
		}
	}
	return 0, false
}

// relState is one relation's working state while a Commit validates
// and groups the batch.
type relState struct {
	id       plan.NodeID
	rel      *Relation
	appends  [][]int64
	deleted  []int
	deadSet  map[int]bool
	baseRows int
}

// Commit validates and applies the batch, returning the next snapshot.
// The receiver's base snapshot is unchanged. An empty batch is an
// error: version numbers advance only with content.
func (dl *Delta) Commit() (Version, error) {
	d := dl.base
	if len(dl.muts) == 0 {
		return Version{}, fmt.Errorf("storage: empty delta")
	}

	// Group and validate in application order.
	states := make(map[plan.NodeID]*relState)
	order := make([]plan.NodeID, 0, 4)
	h := FingerprintUint64(d.VersionFingerprint(), d.version+1)
	for _, m := range dl.muts {
		id, ok := d.relByName(m.Rel)
		if !ok {
			return Version{}, fmt.Errorf("storage: delta references unknown relation %q", m.Rel)
		}
		st := states[id]
		if st == nil {
			st = &relState{id: id, rel: d.rels[id], baseRows: d.BaseRows(id)}
			states[id] = st
			order = append(order, id)
		}
		switch m.Op {
		case OpAppend:
			if len(m.Values) != st.rel.NumCols() {
				return Version{}, fmt.Errorf("storage: append to %q has %d values for %d columns",
					m.Rel, len(m.Values), st.rel.NumCols())
			}
			st.appends = append(st.appends, m.Values)
		case OpDelete:
			n := st.rel.NumRows() + len(st.appends)
			if m.Row < 0 || m.Row >= n {
				return Version{}, fmt.Errorf("storage: delete of %q row %d out of range [0, %d)", m.Rel, m.Row, n)
			}
			alive := true
			if m.Row < st.rel.NumRows() {
				if live := d.Live(id); live != nil {
					alive = live.Get(m.Row)
				}
			}
			if !alive || st.deadSet[m.Row] {
				return Version{}, fmt.Errorf("storage: delete of %q row %d: row is already dead", m.Rel, m.Row)
			}
			if st.deadSet == nil {
				st.deadSet = make(map[int]bool)
			}
			st.deadSet[m.Row] = true
			st.deleted = append(st.deleted, m.Row)
		default:
			return Version{}, fmt.Errorf("storage: unknown mutation op %d", m.Op)
		}
		h = foldMutation(h, m)
	}

	// Assemble the successor snapshot: untouched relations and their
	// maintenance state are shared by reference.
	nd := &Dataset{
		Tree:     d.Tree,
		rels:     make(map[plan.NodeID]*Relation, len(d.rels)),
		keys:     d.keys,
		version:  d.version + 1,
		vfp:      h,
		vfpSet:   true,
		live:     make(map[plan.NodeID]*Bitmap, len(d.rels)),
		baseRows: make(map[plan.NodeID]int, len(d.rels)),
		baseLive: make(map[plan.NodeID]*Bitmap, len(d.rels)),
	}
	for id, rel := range d.rels {
		nd.rels[id] = rel
		if live := d.Live(id); live != nil {
			nd.live[id] = live
		}
		nd.baseRows[id] = d.BaseRows(id)
		if bl := d.BaseLive(id); bl != nil {
			nd.baseLive[id] = bl
		}
	}

	v := Version{Number: nd.version, Fingerprint: h, Dataset: nd}
	// Ascending NodeID so Version.Deltas (and therefore downstream
	// repair work) is canonical.
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			if order[j] < order[i] {
				order[i], order[j] = order[j], order[i]
			}
		}
	}
	for _, id := range order {
		st := states[id]
		oldN := st.rel.NumRows()
		newN := oldN + len(st.appends)
		rel := st.rel
		if len(st.appends) > 0 {
			rel = rel.cloneAppend(st.appends)
		}
		nd.rels[id] = rel

		// Liveness: clone-on-write, grown so appended rows start live.
		var live *Bitmap
		switch prev := d.Live(id); {
		case len(st.deleted) > 0 && prev != nil:
			live = prev.CloneGrown(newN)
		case len(st.deleted) > 0:
			live = NewBitmap(newN)
		case prev != nil:
			live = prev.CloneGrown(newN)
		}
		for _, row := range st.deleted {
			live.Clear(row)
		}
		if live != nil {
			nd.live[id] = live
		} else {
			delete(nd.live, id)
		}

		// Compaction: advance the base marker when the pending delta
		// outgrows the packed base.
		baseLiveCount := st.baseRows
		if bl := d.BaseLive(id); bl != nil {
			baseLiveCount = bl.Count()
		}
		tombstones := 0
		if live != nil {
			tombstones = baseLiveCount - live.CountRange(0, st.baseRows)
		}
		pending := (newN - st.baseRows) + tombstones
		compacted := dl.forceCompact || shouldCompact(st.baseRows, pending)
		if compacted {
			nd.baseRows[id] = newN
			if live != nil {
				nd.baseLive[id] = live.Clone()
			} else {
				delete(nd.baseLive, id)
			}
		}

		v.Deltas = append(v.Deltas, RelationDelta{
			Rel:          id,
			AppendedFrom: oldN,
			Appended:     len(st.appends),
			Deleted:      st.deleted,
			Compacted:    compacted,
		})
	}
	if dl.err != nil {
		return Version{}, dl.err
	}
	return v, nil
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
	nd.live = make(map[plan.NodeID]*Bitmap, len(d.live))
	nd.baseRows = make(map[plan.NodeID]int, len(from))
	nd.baseLive = make(map[plan.NodeID]*Bitmap, len(d.baseLive))
	for id, old := range from {
		nd.SetRelation(id, d.Relation(old), keys[id])
		nd.baseRows[id] = d.BaseRows(old)
		if live := d.Live(old); live != nil {
			nd.live[id] = live
		}
		if bl := d.BaseLive(old); bl != nil {
			nd.baseLive[id] = bl
		}
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
func (d *Dataset) Live(id plan.NodeID) *Bitmap {
	if d.live == nil {
		return nil
	}
	return d.live[id]
}

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
	if d.baseRows != nil {
		if b, ok := d.baseRows[id]; ok {
			return b
		}
	}
	return d.Relation(id).NumRows()
}

// BaseLive returns id's live-at-last-compaction mask over the base
// region, or nil when every base row was live at compaction.
func (d *Dataset) BaseLive(id plan.NodeID) *Bitmap {
	if d.baseLive == nil {
		return nil
	}
	return d.baseLive[id]
}

// HasDeltas reports whether any relation carries uncompacted delta
// state (tombstones or an append region) — the executor's cheap gate
// for the versioned build and mask paths.
func (d *Dataset) HasDeltas() bool {
	if len(d.live) > 0 {
		return true
	}
	for id, b := range d.baseRows {
		if b < d.Relation(id).NumRows() {
			return true
		}
	}
	return false
}
