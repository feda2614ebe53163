package bitvector

import (
	"math/rand"
	"reflect"
	"testing"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// versionedDataset builds a one-child dataset ("R2" keyed on "k") and
// walks it through random commits, returning the base snapshot and
// every committed version.
func versionedDataset(t *testing.T, rows, steps int, seed int64) (*storage.Dataset, []storage.Version) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := plan.NewTree("R1")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, "R2")
	r1 := storage.NewRelation("R1", "id")
	r1.AppendRow(0)
	r2 := storage.NewRelation("R2", "id", "k")
	for i := 0; i < rows; i++ {
		r2.AppendRow(int64(i), rng.Int63n(int64(rows/2+1)))
	}
	ds := storage.NewDataset(tr)
	ds.SetRelation(plan.Root, r1, "")
	ds.SetRelation(plan.NodeID(1), r2, "k")

	var versions []storage.Version
	cur := ds
	for s := 0; s < steps; s++ {
		id := plan.NodeID(1)
		rel, live := cur.Relation(id), cur.Live(id)
		d := cur.Begin()
		for o, n := 0, 1+rng.Intn(6); o < n; o++ {
			if rng.Intn(10) < 6 {
				d.Append("R2", rng.Int63n(1<<20), rng.Int63n(int64(rows/2+1)))
			} else {
				row := rng.Intn(rel.NumRows())
				if live == nil || live.Get(row) {
					d.Delete("R2", row)
					if live == nil {
						live = storage.NewBitmap(rel.NumRows())
					}
					live = live.Clone()
					live.Clear(row)
				}
			}
		}
		v, err := d.Commit()
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		cur = v.Dataset
		versions = append(versions, v)
	}
	return ds, versions
}

// buildVersionedTable builds the cold versioned table for a snapshot.
func buildVersionedTable(ds *storage.Dataset) *hashtable.Table {
	id := plan.NodeID(1)
	return hashtable.BuildVersioned(ds.Relation(id), "k",
		ds.BaseRows(id), ds.BaseLive(id), ds.Live(id), 1, nil)
}

// TestRepairedTableProjectsColdFilter: at every version, the filter of
// a table carried forward by ApplyDelta — what the serving layer's
// commit-time repair leaves in the cache — must be bit-identical to the
// filter of a cold build of that snapshot, through appends, deletes
// (which change nothing: bits are never cleared) and the compactions
// the storage layer decides on. A repaired table derives words of its
// own: taking its filter must leave the previous version's untouched,
// because queries pinned to that snapshot are still probing them.
func TestRepairedTableProjectsColdFilter(t *testing.T) {
	id := plan.NodeID(1)
	for trial := 0; trial < 6; trial++ {
		base, versions := versionedDataset(t, 80+trial*40, 10, int64(trial*7+3))
		repaired := buildVersionedTable(base)
		for _, v := range versions {
			ds := v.Dataset
			prev := FromTable(repaired)
			prevBits := append([]uint64(nil), prev.bits...)
			for _, d := range v.Deltas {
				repaired = repaired.ApplyDelta(ds.Relation(id), "k", hashtable.DeltaSpec{
					BaseRows: ds.BaseRows(id), BaseLive: ds.BaseLive(id), Live: ds.Live(id),
					AppendedFrom: d.AppendedFrom, Deleted: d.Deleted, Compacted: d.Compacted,
				}, 1, nil)
			}
			got, cold := FromTable(repaired), FromTable(buildVersionedTable(ds))
			if !reflect.DeepEqual(got.bits, cold.bits) {
				t.Fatalf("trial %d v%d: repaired table's filter bits diverged from the cold build's", trial, v.Dataset.Version())
			}
			if got.shift != cold.shift || got.n != cold.n {
				t.Fatalf("trial %d v%d: geometry diverged (shift %d/%d, n %d/%d)",
					trial, v.Dataset.Version(), got.shift, cold.shift, got.n, cold.n)
			}
			if !reflect.DeepEqual(prev.bits, prevBits) {
				t.Fatalf("trial %d v%d: repair changed the previous version's filter", trial, v.Dataset.Version())
			}
			// No false negatives over live rows, the filter contract.
			rel, live := ds.Relation(id), ds.Live(id)
			col := rel.Column("k")
			for r := 0; r < rel.NumRows(); r++ {
				if (live == nil || live.Get(r)) && !mayContain(got, col[r]) {
					t.Fatalf("trial %d v%d: live key %d missing from filter", trial, v.Dataset.Version(), col[r])
				}
			}
		}
	}
}
