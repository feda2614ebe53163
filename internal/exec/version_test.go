package exec

import (
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// mutateRandomly commits one random batch against ds: appends cloned
// from live resident rows (fresh surrogate id, so the copied key
// columns join exactly as their source rows do), plus deletes of
// random live rows across all relations. With compact, the batch also
// appends a quarter of every relation's base, so every relation
// compacts.
func mutateRandomly(t *testing.T, ds *storage.Dataset, rng *rand.Rand, nOps int, compact bool) storage.Version {
	t.Helper()
	d := ds.Begin()
	deleted := make(map[plan.NodeID]map[int]bool)
	liveRows := func(id plan.NodeID) []int {
		rel, live := ds.Relation(id), ds.Live(id)
		var rows []int
		for r := 0; r < rel.NumRows(); r++ {
			if (live == nil || live.Get(r)) && !deleted[id][r] {
				rows = append(rows, r)
			}
		}
		return rows
	}
	appendClone := func(id plan.NodeID, liveRows []int) {
		rel := ds.Relation(id)
		vals := make([]int64, rel.NumCols())
		if len(liveRows) > 0 {
			src := liveRows[rng.Intn(len(liveRows))]
			for c := range vals {
				vals[c] = rel.ColumnAt(c)[src]
			}
		}
		for c, name := range rel.ColumnNames() {
			if name == "id" {
				vals[c] = int64(1<<40) + rng.Int63n(1<<20)
			}
		}
		d.Append(rel.Name(), vals...)
	}
	for o := 0; o < nOps; o++ {
		id := plan.NodeID(rng.Intn(ds.Tree.Len()))
		rows := liveRows(id)
		if rng.Intn(10) < 6 || len(rows) == 0 {
			appendClone(id, rows)
		} else {
			row := rows[rng.Intn(len(rows))]
			if deleted[id] == nil {
				deleted[id] = make(map[int]bool)
			}
			deleted[id][row] = true
			d.Delete(ds.Relation(id).Name(), row)
		}
	}
	if compact {
		for i := 0; i < ds.Tree.Len(); i++ {
			id := plan.NodeID(i)
			rows := liveRows(id)
			for n := 0; n*4 <= ds.BaseRows(id); n++ {
				appendClone(id, rows)
			}
		}
	}
	v, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestVersionedExecutionMatchesReference is the satellite property
// test: across random append/delete/compact sequences, every strategy
// at 1, 2 and 8 workers must answer each version with exactly the
// brute-force oracle's count and checksum for that snapshot, and a
// fresh run against an old snapshot must still answer the OLD version
// (snapshot isolation at the executor level). Run under -race in CI.
func TestVersionedExecutionMatchesReference(t *testing.T) {
	workers := []int{1, 2, 8}
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewSource(int64(trial*53 + 11)))
		ds := smallDataset(int64(trial*29+13), 5, 40+rng.Intn(40))
		orders := ds.Tree.AllOrders()
		snaps := []*storage.Dataset{ds}
		cur := ds
		for step := 0; step < 5; step++ {
			v := mutateRandomly(t, cur, rng, 3+rng.Intn(8), step == 3)
			cur = v.Dataset
			snaps = append(snaps, cur)
		}
		for vi, snap := range snaps {
			wantCount, wantSum := Reference(snap)
			order := orders[rng.Intn(len(orders))]
			for _, s := range cost.AllStrategies {
				for _, w := range workers {
					stats, err := Run(snap, Options{
						Strategy:    s,
						Order:       order,
						FlatOutput:  true,
						Parallelism: w,
					})
					if err != nil {
						t.Fatalf("trial %d v%d strategy %v workers %d: %v", trial, vi, s, w, err)
					}
					if stats.OutputTuples != wantCount {
						t.Fatalf("trial %d v%d strategy %v workers %d: count %d, want %d",
							trial, vi, s, w, stats.OutputTuples, wantCount)
					}
					if wantCount > 0 && stats.Checksum != wantSum {
						t.Fatalf("trial %d v%d strategy %v workers %d: checksum mismatch",
							trial, vi, s, w)
					}
				}
			}
		}
		// Snapshot isolation: with the final version long committed, the
		// base snapshot still answers as version 0 — bit-identically to
		// its own oracle, not the successor's.
		baseCount, baseSum := Reference(snaps[0])
		stats, err := Run(snaps[0], Options{
			Strategy: cost.COM, Order: orders[0], FlatOutput: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.OutputTuples != baseCount || (baseCount > 0 && stats.Checksum != baseSum) {
			t.Fatalf("trial %d: base snapshot's answer drifted after later commits", trial)
		}
	}
}

// TestVersionedSelectionsMatchReference: pushed-down selections on a
// snapshot with delta state (tombstones + append region) go through
// the effective-mask path; they must agree with the oracle given the
// same selections.
func TestVersionedSelectionsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(301))
	ds := smallDataset(71, 4, 60)
	cur := ds
	for step := 0; step < 3; step++ {
		cur = mutateRandomly(t, cur, rng, 5, false).Dataset
	}
	if !cur.HasDeltas() {
		t.Skip("mutation stream left no delta state")
	}
	orders := cur.Tree.AllOrders()
	id := plan.NodeID(1)
	sel := []Selection{{Rel: id, Column: cur.Relation(id).ColumnNames()[0], Value: 1}}
	wantCount, wantSum := ReferenceOpts(cur, nil, sel)
	for _, s := range cost.AllStrategies {
		stats, err := Run(cur, Options{
			Strategy: s, Order: orders[0], FlatOutput: true,
			Selections: sel,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if stats.OutputTuples != wantCount || (wantCount > 0 && stats.Checksum != wantSum) {
			t.Fatalf("%v: selection on versioned snapshot diverged (count %d, want %d)",
				s, stats.OutputTuples, wantCount)
		}
	}
}
