package shard

import (
	"math/rand"
	"reflect"
	"testing"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// commitRandomBatch commits nOps random driver appends/deletes plus a
// few child-relation appends against ds — enough churn to exercise
// every Advance path (appends, deletes, shared build side).
func commitRandomBatch(t *testing.T, ds *storage.Dataset, rng *rand.Rand, nOps int) storage.Version {
	t.Helper()
	driver := ds.Relation(plan.Root)
	live := ds.Live(plan.Root)
	var liveRows []int
	for r := 0; r < driver.NumRows(); r++ {
		if live == nil || live.Get(r) {
			liveRows = append(liveRows, r)
		}
	}
	d := ds.Begin()
	for o := 0; o < nOps; o++ {
		switch {
		case rng.Intn(3) == 0 && len(liveRows) > 0:
			k := rng.Intn(len(liveRows))
			d.Delete(driver.Name(), liveRows[k])
			liveRows = append(liveRows[:k], liveRows[k+1:]...)
		case rng.Intn(2) == 0:
			vals := make([]int64, driver.NumCols())
			for c := range vals {
				vals[c] = rng.Int63n(1 << 30)
			}
			d.Append(driver.Name(), vals...)
		default:
			id := ds.Tree.NonRoot()[rng.Intn(len(ds.Tree.NonRoot()))]
			rel := ds.Relation(id)
			vals := make([]int64, rel.NumCols())
			for c := range vals {
				vals[c] = rng.Int63n(1 << 30)
			}
			d.Append(rel.Name(), vals...)
		}
	}
	v, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// requireShardsEqual asserts two partitions are identical: same
// labels, same parent snapshot, same driver row sets mask for mask.
func requireShardsEqual(t *testing.T, got, want []Shard) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("shard count %d, want %d", len(got), len(want))
	}
	for s := range want {
		g, w := got[s], want[s]
		if g.Index != w.Index || g.Count != w.Count || g.Parent != w.Parent {
			t.Fatalf("shard %d: label/parent (%d/%d %p) vs (%d/%d %p)", s,
				g.Index, g.Count, g.Parent, w.Index, w.Count, w.Parent)
		}
		if (g.Rows == nil) != (w.Rows == nil) {
			t.Fatalf("shard %d: nil mask on one side only", s)
		}
		if g.Rows == nil {
			continue
		}
		if g.Rows.Len() != w.Rows.Len() || !reflect.DeepEqual(g.Rows.Words(), w.Rows.Words()) {
			t.Fatalf("shard %d: masks differ", s)
		}
	}
}

// TestAdvanceMatchesPartition: advancing a partition through a chain
// of commits must produce exactly what partitioning each committed
// snapshot from scratch produces — the lockstep invariant that lets
// the serving layer keep shard caches warm across versions.
func TestAdvanceMatchesPartition(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		rng := rand.New(rand.NewSource(int64(n * 17)))
		cur := testDataset(t, 300, int64(n))
		advanced, err := Partition(cur, n)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 4; step++ {
			v := commitRandomBatch(t, cur, rng, 2+rng.Intn(10))
			cur = v.Dataset
			advanced, err = Advance(advanced, cur, v)
			if err != nil {
				t.Fatalf("n=%d step %d: %v", n, step, err)
			}
			fresh, err := Partition(cur, n)
			if err != nil {
				t.Fatal(err)
			}
			requireShardsEqual(t, advanced, fresh)
		}
	}
}

// TestAdvanceRejectsMismatchedSnapshot: Advance must refuse a version
// whose Dataset is not the parent being advanced to.
func TestAdvanceRejectsMismatchedSnapshot(t *testing.T) {
	ds := testDataset(t, 100, 9)
	shards, err := Partition(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := commitRandomBatch(t, ds, rand.New(rand.NewSource(1)), 3)
	if _, err := Advance(shards, ds, v); err == nil {
		t.Fatalf("Advance accepted a parent that is not the committed snapshot")
	}
}
