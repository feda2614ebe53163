package hashtable

import (
	"fmt"
	"math/bits"

	"m2mjoin/internal/storage"
)

// This file is the incremental-maintenance side of the tagged table:
// versioned builds and O(delta) repair, mirroring the storage layer's
// snapshot model (storage/version.go).
//
// A versioned table covers a relation in two parts. The packed part is
// the ordinary bucket-sorted layout over the base region — rows
// [0, BaseRows) masked by the live-at-last-compaction bitmap — exactly
// what buildColumn produces. On top of it, deletes flip per-entry
// tombstone bits (the entry stays in its run, dead), and appended rows
// live in a small append region: a second packed sub-table over the
// column tail [BaseRows, NumRows), its row indices already global.
// The probe kernel (pipeline.go) handles both inside its two stages —
// packed run first, then append run, both skipping tombstones — which
// preserves ascending-row match order because every append row sits
// above every base row.
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
func (t *Table) isDead(e uint64) bool {
	return t.dead != nil && t.dead[e>>6]&(1<<(e&63)) != 0
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
// masked by baseLive, tombstones for base rows dead in live, and an
// append sub-table over [baseRows, NumRows). With a fully packed,
// fully live relation it degenerates to exactly BuildParallelStop's
// table. stop is the cooperative cancel hook; a true poll returns nil.
func BuildVersioned(rel *storage.Relation, keyColumn string, baseRows int,
	baseLive, live *storage.Bitmap, workers int, stop func() bool) *Table {
	col := rel.Column(keyColumn)
	n := len(col)
	var mask *storage.Bitmap
	if baseLive != nil {
		// Extend the base-region mask to the full column with a zero
		// tail, so the packed build skips the append region.
		mask = storage.NewEmptyBitmap(n)
		copy(mask.Words(), baseLive.Words())
	} else if baseRows < n {
		mask = storage.NewEmptyBitmap(n)
		w := mask.Words()
		for wi := 0; wi < baseRows>>6; wi++ {
			w[wi] = ^uint64(0)
		}
		if baseRows&63 != 0 {
			w[baseRows>>6] = 1<<(uint(baseRows)&63) - 1
		}
	}
	t := buildColumn(col, mask, workers, stop)
	if t == nil {
		return nil
	}
	t.baseRows, t.totalRows = baseRows, n

	// Tombstones: rows live at compaction but dead now.
	if live != nil {
		for wi := 0; wi < (baseRows+63)>>6; wi++ {
			w := ^live.Words()[wi]
			if mask != nil {
				w &= mask.Words()[wi]
			} else if wi == baseRows>>6 && baseRows&63 != 0 {
				w &= 1<<(uint(baseRows)&63) - 1
			}
			base := wi << 6
			for ; w != 0; w &= w - 1 {
				row := base + bits.TrailingZeros64(w)
				t.kill(col[row], int32(row))
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
// tail [t.baseRows, t.totalRows), remapping its rows to global indices
// and tombstoning the ones dead in live. The append region is small by
// construction (compaction bounds it at a quarter of the base), so the
// build is sequential.
func (t *Table) buildAppendRegion(col storage.Column, live *storage.Bitmap, stop func() bool) bool {
	sub := buildColumn(col[t.baseRows:t.totalRows], nil, 1, stop)
	if sub == nil {
		return false
	}
	for i := range sub.rows {
		sub.rows[i] += int32(t.baseRows)
	}
	t.app = sub
	if live != nil {
		for row := t.baseRows; row < t.totalRows; row++ {
			if !live.Get(row) {
				sub.kill(col[row], int32(row))
			}
		}
	}
	return true
}

// kill tombstones the entry holding global row, found by scanning the
// key's bucket run.
func (t *Table) kill(key int64, row int32) {
	b := Hash64(key) >> t.shift
	for e, end := t.dir[b]>>offShift, t.dir[b+1]>>offShift; e < end; e++ {
		if t.rows[e] == row {
			if t.dead == nil {
				t.dead = make([]uint64, (len(t.keys)+63)/64)
			}
			if !t.isDead(e) {
				t.dead[e>>6] |= 1 << (e & 63)
				t.deadCount++
			}
			return
		}
	}
	panic(fmt.Sprintf("hashtable: tombstone for absent row %d", row))
}

// ApplyDelta returns a new table reflecting one commit, sharing the
// packed arrays with the receiver (copy-on-write: the receiver keeps
// answering for its own snapshot). Deletes flip cloned tombstone bits;
// appends rebuild the append sub-table over the grown column tail;
// a compaction — or a delta that does not chain from this table's
// state — falls back to a full BuildVersioned. The result is bit-
// identical to BuildVersioned on the successor snapshot.
func (t *Table) ApplyDelta(rel *storage.Relation, keyColumn string, d DeltaSpec,
	workers int, stop func() bool) *Table {
	col := rel.Column(keyColumn)
	if d.Compacted || t.totalRows != d.AppendedFrom {
		return BuildVersioned(rel, keyColumn, d.BaseRows, d.BaseLive, d.Live, workers, stop)
	}
	nt := &Table{
		keys: t.keys, rows: t.rows, dir: t.dir, shift: t.shift,
		baseRows: t.baseRows, totalRows: len(col),
		dead: t.dead, deadCount: t.deadCount, app: t.app,
	}
	var appDels []int
	clonedDead := false
	for _, row := range d.Deleted {
		if row < t.baseRows {
			if !clonedDead {
				nt.dead = cloneBits(t.dead, len(t.keys))
				clonedDead = true
			}
			nt.kill(col[row], int32(row))
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
			keys: t.app.keys, rows: t.app.rows, dir: t.app.dir, shift: t.app.shift,
			dead: cloneBits(t.app.dead, len(t.app.keys)), deadCount: t.app.deadCount,
		}
		for _, row := range appDels {
			nt.app.kill(col[row], int32(row))
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

// layoutSum fingerprints the packed layout: shift, markers, entries and
// directory.
func (t *Table) layoutSum() uint64 {
	h := uint64(storage.FingerprintSeed)
	h = storage.FingerprintUint64(h, uint64(t.shift))
	h = storage.FingerprintUint64(h, uint64(t.baseRows))
	h = storage.FingerprintUint64(h, uint64(t.totalRows))
	h = storage.FingerprintUint64(h, uint64(len(t.keys)))
	for i, k := range t.keys {
		h = storage.FingerprintUint64(h, uint64(k))
		h = storage.FingerprintUint64(h, uint64(t.rows[i]))
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
	for e := range t.keys {
		if t.isDead(uint64(e)) {
			h = storage.FingerprintUint64(h, uint64(e))
		}
	}
	return h
}
