package hashtable

import (
	"math/rand"
	"testing"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// deltaTestDataset builds a single-child dataset whose child relation
// "R2" (keyed on "k") is the subject of the mutation stream.
func deltaTestDataset(rows int, rng *rand.Rand) *storage.Dataset {
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
	return ds
}

// randomMutationBatch builds a commit of nOps random appends/deletes
// against R2, tracking already-dead rows so the batch stays valid.
func randomMutationBatch(cur *storage.Dataset, rng *rand.Rand, nOps int) (storage.Version, error) {
	id := plan.NodeID(1)
	rel := cur.Relation(id)
	live := cur.Live(id)
	var candidates []int
	for r := 0; r < rel.NumRows(); r++ {
		if live == nil || live.Get(r) {
			candidates = append(candidates, r)
		}
	}
	d := cur.Begin()
	for o := 0; o < nOps; o++ {
		if rng.Intn(10) < 6 || len(candidates) == 0 {
			d.Append("R2", rng.Int63n(1<<20), rng.Int63n(int64(rel.NumRows()/2+1)))
		} else {
			k := rng.Intn(len(candidates))
			d.Delete("R2", candidates[k])
			candidates = append(candidates[:k], candidates[k+1:]...)
		}
	}
	return d.Commit()
}

// buildCold builds the versioned table for the dataset's current
// maintenance state from scratch.
func buildCold(ds *storage.Dataset, workers int) *Table {
	id := plan.NodeID(1)
	return BuildVersioned(ds.Relation(id), "k",
		ds.BaseRows(id), ds.BaseLive(id), ds.Live(id), workers, nil)
}

// TestApplyDeltaMatchesBuildVersioned is the incremental-repair
// differential test: across random append/delete/compact sequences the
// ApplyDelta chain must stay bit-identical (by Checksum) to a cold
// BuildVersioned of every version, at several worker counts.
func TestApplyDeltaMatchesBuildVersioned(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial*101 + 5)))
		cur := deltaTestDataset(60+rng.Intn(200), rng)
		repaired := buildCold(cur, 1)
		if repaired.Checksum() != buildCold(cur, 4).Checksum() {
			t.Fatalf("trial %d: worker count changed the v0 build", trial)
		}
		for step := 0; step < 12; step++ {
			v, err := randomMutationBatch(cur, rng, 1+rng.Intn(8))
			if err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			cur = v.Dataset
			id := plan.NodeID(1)
			d := v.Deltas[0]
			repaired = repaired.ApplyDelta(cur.Relation(id), "k", DeltaSpec{
				BaseRows:     cur.BaseRows(id),
				BaseLive:     cur.BaseLive(id),
				Live:         cur.Live(id),
				AppendedFrom: d.AppendedFrom,
				Deleted:      d.Deleted,
				Compacted:    d.Compacted,
			}, 2, nil)
			for _, workers := range []int{1, 4} {
				cold := buildCold(cur, workers)
				if repaired.Checksum() != cold.Checksum() {
					t.Fatalf("trial %d step %d (compacted=%v, workers=%d): repaired table diverged from cold build",
						trial, step, d.Compacted, workers)
				}
			}
		}
	}
}

// TestDeltaProbesMatchOracle: on a table with an append region and
// tombstones in both regions, every entry point must agree with a naive
// map over the live rows — membership, match lists (ascending row
// order) and counts, under nil, dense and sparse selections, plus the
// TagHits+TagMisses == Probed invariant — and ReduceLive must keep
// exactly the set rows whose key the map holds.
func TestDeltaProbesMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cur := deltaTestDataset(150, rng)
	id := plan.NodeID(1)
	tbl := buildCold(cur, 1)
	// Mutate until both regions carry tombstones (a compaction along the
	// way folds everything back and the stream starts over).
	for step := 0; tbl.deadCount == 0 || tbl.app == nil || tbl.app.deadCount == 0; step++ {
		if step == 50 {
			t.Fatalf("mutation stream never left tombstones in both regions")
		}
		v, err := randomMutationBatch(cur, rng, 5+rng.Intn(10))
		if err != nil {
			t.Fatal(err)
		}
		cur = v.Dataset
		tbl = buildCold(cur, 1)
	}
	rel, live := cur.Relation(id), cur.Live(id)
	col := rel.Column("k")
	oracle := make(map[int64][]int32)
	for r := 0; r < rel.NumRows(); r++ {
		if live == nil || live.Get(r) {
			oracle[col[r]] = append(oracle[col[r]], int32(r))
		}
	}
	probes := make([]int64, 0, 400)
	for k := int64(-3); k < 200; k++ {
		probes = append(probes, k)
	}
	dense, sparse := make([]bool, len(probes)), make([]bool, len(probes))
	for i := range probes {
		dense[i] = rng.Intn(4) > 0
		sparse[i] = rng.Intn(8) == 0
	}
	counts, found := make([]int32, len(probes)), make([]bool, len(probes))
	for si, sel := range [][]bool{nil, dense, sparse} {
		var res ProbeResult
		tbl.ProbeBatchInto(probes, sel, &res)
		if res.TagHits+res.TagMisses != res.Probed {
			t.Fatalf("sel %d: tag invariant broken: %d + %d != %d", si, res.TagHits, res.TagMisses, res.Probed)
		}
		cst := tbl.ProbeCounts(probes, sel, counts)
		fst := tbl.ProbeContains(probes, sel, found)
		if want := (ProbeStats{res.Probed, res.TagHits, res.TagMisses}); cst != want || fst != want {
			t.Fatalf("sel %d: stats ProbeCounts %+v, ProbeContains %+v, ProbeBatchInto %+v", si, cst, fst, want)
		}
		probed := 0
		for i, k := range probes {
			var want []int32
			if sel == nil || sel[i] {
				want = oracle[k]
				probed++
			}
			got := res.Rows[res.Offsets[i]:res.Offsets[i+1]]
			if len(got) != len(want) {
				t.Fatalf("sel %d key %d: %d matches, want %d", si, k, len(got), len(want))
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("sel %d key %d: match %d = row %d, want %d (ascending order)", si, k, j, got[j], want[j])
				}
			}
			if found[i] != (len(want) > 0) {
				t.Fatalf("sel %d key %d: contains = %v, oracle %v", si, k, found[i], len(want) > 0)
			}
			if int(counts[i]) != len(want) || int(res.Counts[i]) != len(want) {
				t.Fatalf("sel %d key %d: count = %d / %d, want %d", si, k, counts[i], res.Counts[i], len(want))
			}
		}
		if res.Probed != probed {
			t.Fatalf("sel %d: Probed = %d, want %d", si, res.Probed, probed)
		}

		// ReduceLive over the same lanes as a packed mask.
		mask := storage.NewBitmap(len(probes))
		for i := range probes {
			if sel != nil && !sel[i] {
				mask.Clear(i)
			}
		}
		rst := tbl.ReduceLive(probes, mask, 0, len(probes))
		if want := (ProbeStats{res.Probed, res.TagHits, res.TagMisses}); rst != want {
			t.Fatalf("sel %d: ReduceLive stats %+v, want %+v", si, rst, want)
		}
		for i := range probes {
			if mask.Get(i) != found[i] {
				t.Fatalf("sel %d key %d: ReduceLive kept %v, contains %v", si, probes[i], mask.Get(i), found[i])
			}
		}
	}
}

// BenchmarkIncrementalRepair compares repairing a cached table through
// ApplyDelta against rebuilding it cold with BuildVersioned after one
// small commit — the asymmetry that makes commit-time cache repair
// worth doing.
func BenchmarkIncrementalRepair(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	base := deltaTestDataset(200000, rng)
	v, err := base.Begin().
		Append("R2", 1, 7).Append("R2", 2, 8).Append("R2", 3, 9).
		Delete("R2", 50).Delete("R2", 9000).
		Commit()
	if err != nil {
		b.Fatal(err)
	}
	cur := v.Dataset
	id := plan.NodeID(1)
	d := v.Deltas[0]
	spec := DeltaSpec{
		BaseRows:     cur.BaseRows(id),
		BaseLive:     cur.BaseLive(id),
		Live:         cur.Live(id),
		AppendedFrom: d.AppendedFrom,
		Deleted:      d.Deleted,
		Compacted:    d.Compacted,
	}
	prev := buildCold(base, 1)

	b.Run("ApplyDelta", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if prev.ApplyDelta(cur.Relation(id), "k", spec, 1, nil) == nil {
				b.Fatal("repair failed")
			}
		}
	})
	b.Run("BuildVersioned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if buildCold(cur, 1) == nil {
				b.Fatal("build failed")
			}
		}
	})
}
