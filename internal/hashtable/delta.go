package hashtable

import (
	"fmt"
	"math/bits"
	"slices"

	"m2mjoin/internal/storage"
)

// This file is the incremental-maintenance side of the tagged table:
// versioned builds and O(delta) repair, mirroring the storage layer's
// snapshot model (storage/version.go).
//
// A versioned table covers a relation in two parts. The packed part is
// the ordinary chained layout over the base region — rows
// [0, BaseRows) masked by the live-at-last-compaction bitmap — exactly
// what buildColumn produces. On top of it, deletes flip per-entry
// tombstone bits (the entry stays in its chain, dead), and appended
// rows live in a small append region: a second sub-table over the
// column tail [BaseRows, NumRows), whose entry e is row BaseRows+e.
// A tombstone finds its entry from the row alone: directly without a
// row map, by rank (binary search of the ascending row map) with one.
// The probe kernel (pipeline.go) handles both parts inside its two
// stages — packed chain first, then append chain, both skipping
// tombstones — which preserves ascending-row match order because every
// append row sits above every base row.
//
// The shape of a versioned table is a pure function of
// (column, BaseRows, BaseLive, Live): ApplyDelta repairs a cached table
// into exactly the state BuildVersioned would build cold, bit for bit,
// which is what lets the serving layer repair cached artifacts in
// place on small deltas and still answer queries identically to a
// from-scratch build (differential-tested in delta_test.go).
// Compaction is decided by the storage layer at commit time and arrives
// here as DeltaSpec.Compacted — the table never compacts on its own, so
// every replica and every repair history agrees on when the layout
// folds back to fully packed.

// DeltaSpec carries one dataset commit's effect on one relation into a
// table repair — the table-facing view of a storage.RelationDelta plus
// the successor snapshot's maintenance state.
type DeltaSpec struct {
	// BaseRows / BaseLive / Live are the relation's maintenance state
	// AFTER the commit (storage Dataset accessors of the new snapshot).
	BaseRows int
	BaseLive *storage.Bitmap
	Live     *storage.Bitmap
	// AppendedFrom is the relation's row count before the commit.
	AppendedFrom int
	// Deleted lists the global rows the commit killed.
	Deleted []int
	// Compacted forces a full rebuild: the commit advanced the base
	// marker, so the packed layout changes wholesale.
	Compacted bool
}

// isDead reports whether entry e is tombstoned.
func (t *Table) isDead(e int32) bool {
	return t.dead != nil && t.dead[e>>6]&(1<<(uint32(e)&63)) != 0
}

// cloneBits copies a tombstone bitset sized for n entries (allocating
// zeroed words when src is nil) — the copy-on-write step of ApplyDelta.
func cloneBits(src []uint64, n int) []uint64 {
	dst := make([]uint64, (n+63)/64)
	copy(dst, src)
	return dst
}

// BuildVersioned constructs a table over rel's key column in the
// versioned shape: a packed part over the base region [0, baseRows)
// masked by baseLive (nil: all live; otherwise it covers exactly the
// base region), tombstones for base rows dead in live, and an append
// sub-table over [baseRows, NumRows). With a fully packed, fully live
// relation it degenerates to exactly BuildParallelStop's table. stop
// is the cooperative cancel hook; a true poll returns nil.
func BuildVersioned(rel *storage.Relation, keyColumn string, baseRows int,
	baseLive, live *storage.Bitmap, workers int, stop func() bool) *Table {
	col := rel.Column(keyColumn)
	n := len(col)
	var t *Table
	if baseLive != nil {
		t = buildColumn(col, baseLive, workers, stop)
	} else {
		t = buildColumn(col[:baseRows], nil, workers, stop)
	}
	if t == nil {
		return nil
	}
	t.baseRows, t.totalRows = baseRows, n

	// Tombstones: rows live at compaction but dead now.
	if live != nil {
		for wi := 0; wi < (baseRows+63)>>6; wi++ {
			w := ^live.Words()[wi]
			if baseLive != nil {
				w &= baseLive.Words()[wi]
			} else if wi == baseRows>>6 {
				w &= 1<<(uint(baseRows)&63) - 1
			}
			for ; w != 0; w &= w - 1 {
				t.kill(int32(wi<<6 + bits.TrailingZeros64(w)))
			}
		}
	}

	if baseRows < n {
		if !t.buildAppendRegion(col, live, stop) {
			return nil
		}
	}
	return t
}

// buildAppendRegion (re)builds the append sub-table over the column
// tail [t.baseRows, t.totalRows) and tombstones the rows dead in live.
// The append region is small by construction (compaction bounds it at
// a quarter of the base), so the build is sequential.
func (t *Table) buildAppendRegion(col storage.Column, live *storage.Bitmap, stop func() bool) bool {
	sub := buildColumn(col[t.baseRows:t.totalRows], nil, 1, stop)
	if sub == nil {
		return false
	}
	sub.base = int32(t.baseRows)
	t.app = sub
	if live != nil {
		for row := t.baseRows; row < t.totalRows; row++ {
			if !live.Get(row) {
				sub.kill(int32(row))
			}
		}
	}
	return true
}

// kill tombstones the entry holding relation row.
func (t *Table) kill(row int32) {
	e, ok := row-t.base, row >= t.base && int(row-t.base) < len(t.next)
	if t.rows != nil {
		i, found := slices.BinarySearch(t.rows, row)
		e, ok = int32(i), found
	}
	if !ok {
		panic(fmt.Sprintf("hashtable: tombstone for absent row %d", row))
	}
	if t.dead == nil {
		t.dead = make([]uint64, (len(t.next)+63)/64)
	}
	if !t.isDead(e) {
		t.dead[e>>6] |= 1 << (uint32(e) & 63)
		t.deadCount++
	}
}

// ApplyDelta returns a new table reflecting one commit, sharing the
// packed arrays with the receiver (copy-on-write: the receiver keeps
// answering for its own snapshot). It reads its keys from the
// successor's column — the same values below the receiver's length —
// so it keeps no superseded column array alive. Deletes flip cloned
// tombstone bits; appends rebuild the append sub-table over the grown
// column tail; a compaction — or a delta that does not chain from this
// table's state — falls back to a full BuildVersioned. The result is
// bit-identical to BuildVersioned on the successor snapshot.
func (t *Table) ApplyDelta(rel *storage.Relation, keyColumn string, d DeltaSpec,
	workers int, stop func() bool) *Table {
	col := rel.Column(keyColumn)
	if d.Compacted || t.totalRows != d.AppendedFrom {
		return BuildVersioned(rel, keyColumn, d.BaseRows, d.BaseLive, d.Live, workers, stop)
	}
	nt := &Table{
		keys: col[:len(t.keys)], rows: t.rows, next: t.next, entries: t.entries, dir: t.dir, shift: t.shift,
		baseRows: t.baseRows, totalRows: len(col),
		dead: t.dead, deadCount: t.deadCount, app: t.app,
	}
	var appDels []int
	clonedDead := false
	for _, row := range d.Deleted {
		if row < t.baseRows {
			if !clonedDead {
				nt.dead = cloneBits(t.dead, len(t.next))
				clonedDead = true
			}
			nt.kill(int32(row))
		} else {
			appDels = append(appDels, row)
		}
	}
	switch {
	case nt.totalRows > t.totalRows:
		// The append region grew: rebuild it over the full tail. Old
		// tombstones are re-derived from d.Live, which already reflects
		// this commit's deletes too.
		if !nt.buildAppendRegion(col, d.Live, stop) {
			return nil
		}
	case len(appDels) > 0:
		// Built field by field: a Table holds a once-guard and must not
		// be copied whole.
		nt.app = &Table{
			keys: col[t.baseRows:t.totalRows], base: t.app.base, next: t.app.next, entries: t.app.entries,
			dir: t.app.dir, shift: t.app.shift,
			dead: cloneBits(t.app.dead, len(t.app.next)), deadCount: t.app.deadCount,
		}
		for _, row := range appDels {
			nt.app.kill(int32(row))
		}
	}
	return nt
}

// Checksum folds the table's entire observable state — packed arrays,
// markers, tombstones and append region — into one fingerprint, the
// bit-identity witness of the differential tests.
func (t *Table) Checksum() uint64 {
	h := t.foldTombstones(t.layoutSum())
	if t.app != nil {
		// The sub-table's layout is folded as the checksum of a
		// tombstone-free table, its tombstones after it: the order the
		// fingerprint has always had.
		h = storage.FingerprintUint64(h, storage.FingerprintUint64(t.app.layoutSum(), 0))
		h = t.app.foldTombstones(h)
	}
	return h
}

// layoutSum fingerprints the layout: shift, markers, entry counts,
// entries (key, row and next link) and directory.
func (t *Table) layoutSum() uint64 {
	h := uint64(storage.FingerprintSeed)
	h = storage.FingerprintUint64(h, uint64(t.shift))
	h = storage.FingerprintUint64(h, uint64(t.baseRows))
	h = storage.FingerprintUint64(h, uint64(t.totalRows))
	h = storage.FingerprintUint64(h, uint64(len(t.next)))
	h = storage.FingerprintUint64(h, uint64(t.entries))
	for e, link := range t.next {
		h = storage.FingerprintUint64(h, uint64(t.key(int32(e))))
		h = storage.FingerprintUint64(h, uint64(t.row(int32(e))))
		h = storage.FingerprintUint64(h, uint64(link))
	}
	for _, w := range t.dir {
		h = storage.FingerprintUint64(h, w)
	}
	return h
}

// foldTombstones folds the tombstone count and the dead entry indices
// into h.
func (t *Table) foldTombstones(h uint64) uint64 {
	h = storage.FingerprintUint64(h, uint64(t.deadCount))
	for e := range t.next {
		if t.isDead(int32(e)) {
			h = storage.FingerprintUint64(h, uint64(e))
		}
	}
	return h
}
