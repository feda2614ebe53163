package workload

import (
	"math/rand"
	"testing"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/stats"
	"m2mjoin/internal/storage"
)

// compacted returns a fresh relation holding the live rows of ds's
// relation id at live-order positions 0, stride, 2·stride, … — at
// stride 1 what the snapshot looks like to a query, with no liveness
// mask left to consult.
func compacted(ds *storage.Dataset, id plan.NodeID, stride int) *storage.Relation {
	src := ds.Relation(id)
	var rows []int32
	pos := 0
	for row := 0; row < src.NumRows(); row++ {
		if live := ds.Live(id); live == nil || live.Get(row) {
			if pos%stride == 0 {
				rows = append(rows, int32(row))
			}
			pos++
		}
	}
	out := storage.NewRelation(src.Name(), src.ColumnNames()...)
	out.GatherRows(src, rows)
	return out
}

// requireGroundTruth asserts that got, the statistics of ds's edge into
// id measured at the given sample size, equals stats.GroundTruth — the
// one map-based oracle — over the compacted child and the live parent
// rows that sample probes: all of them up to 2·sample, else those at
// live-order positions 0, s, 2s, … with s = ⌈live/sample⌉. The two
// differ only where the oracle reports a zero match probability, which
// measurement floors at one in 2·probed+2 (see edgeStats).
func requireGroundTruth(t *testing.T, ds *storage.Dataset, id plan.NodeID, sample int, got plan.EdgeStats) {
	t.Helper()
	parent := ds.Tree.Parent(id)
	stride := 1
	if n := ds.LiveRows(parent); n > 2*sample {
		stride = (n + sample - 1) / sample
	}
	probed := compacted(ds, parent, stride)
	want := stats.GroundTruth(probed, compacted(ds, id, 1), ds.KeyColumn(id), nil, nil)
	if want.M == 0 {
		want.M = 1.0 / float64(2*probed.NumRows()+2)
	}
	if got != want {
		t.Fatalf("edge %d->%d at sample %d (stride %d): measured %+v, ground truth over the probed live rows %+v",
			parent, id, sample, stride, got, want)
	}
}

// TestMeasureHonorsSnapshotLiveness: on a snapshot with pending deletes
// the measured (m, fo) must be those of the live rows — tombstoned child
// rows match nothing and dead parent rows are not probed.
func TestMeasureHonorsSnapshotLiveness(t *testing.T) {
	tr := plan.NewTree("R1")
	a := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.6, Fo: 3}, "R2")
	b := tr.AddChild(a, plan.EdgeStats{M: 0.5, Fo: 4}, "R3")
	ds := Generate(tr, Config{DriverRows: 3000, Seed: 11})

	rng := rand.New(rand.NewSource(11))
	delta := ds.Begin()
	for _, kill := range []struct {
		id   plan.NodeID
		frac float64
	}{{b, 0.5}, {a, 0.1}} {
		n := ds.Relation(kill.id).NumRows()
		for _, row := range rng.Perm(n)[:int(float64(n)*kill.frac)] {
			delta.Delete(tr.Name(kill.id), row)
		}
	}
	v, err := delta.Commit()
	if err != nil {
		t.Fatal(err)
	}
	snap := v.Dataset
	if snap.LiveRows(b) == snap.Relation(b).NumRows() {
		t.Fatal("commit left no pending deletes")
	}

	before, after := Measure(ds), Measure(snap)
	if before[b] == after[b] {
		t.Fatalf("deleting half of R3 and a tenth of R2 did not move the measured edge: %+v", after[b])
	}
	cache := NewEdgeStatsCache()
	for _, id := range tr.NonRoot() {
		requireGroundTruth(t, snap, id, measureSample, after[id])
		if got := MeasureCached(snap, cache)[id]; got != after[id] {
			t.Fatalf("edge %d: cached measurement %+v differs from direct %+v", id, got, after[id])
		}
	}
	// The pre-commit snapshot shares R3's relation with snap; its
	// statistics must not be served for the mutated one (or vice versa).
	if got := MeasureCached(ds, cache)[b]; got != before[b] {
		t.Fatalf("cache served the mutated snapshot's statistics for its parent: %+v, want %+v", got, before[b])
	}
}

// TestRerootKeepsSnapshotLiveness: a rerooted snapshot hides the rows
// its source hides, so the reversed edges measure (and execute) over
// live rows only.
func TestRerootKeepsSnapshotLiveness(t *testing.T) {
	tr := plan.NewTree("R1")
	a := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.6, Fo: 3}, "R2")
	ds := Generate(tr, Config{DriverRows: 1000, Seed: 12})
	delta := ds.Begin()
	for row := 0; row < ds.Relation(plan.Root).NumRows(); row += 3 {
		delta.Delete("R1", row)
	}
	v, err := delta.Commit()
	if err != nil {
		t.Fatal(err)
	}
	re, mapping := Reroot(v.Dataset, a)
	if got, want := re.LiveRows(mapping[plan.Root]), v.Dataset.LiveRows(plan.Root); got != want {
		t.Fatalf("rerooted R1 has %d live rows, source snapshot %d", got, want)
	}
	requireGroundTruth(t, re, mapping[plan.Root], measureSample, re.Tree.Stats(mapping[plan.Root]))
}

// FuzzMeasureEdge checks the table-based edge measurement against the
// map-based oracle on fuzzed relations with fuzzed histories. parent and
// child are key columns, one key per byte; the first split rows of each
// form the registered relations, the rest arrive in a first commit (the
// append region), and a second commit deletes the rows the two delete
// streams pick — in base and append region alike, compacting whenever
// the storage policy says so. Measured on every snapshot of the chain,
// once at the production sample size and once at a sample of 1–8 rows,
// which sends every relation over 2–16 live parent rows through the
// sampled branch.
func FuzzMeasureEdge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{2, 2, 4, 9}, uint8(2), []byte{0}, []byte{1}, uint8(0))
	f.Add([]byte{}, []byte{1, 2}, uint8(0), []byte{}, []byte{}, uint8(3))
	f.Add([]byte{7, 7, 7}, []byte{}, uint8(9), []byte{2}, []byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, parent, child []byte, split uint8, parentDel, childDel []byte, sample uint8) {
		tr := plan.NewTree("P")
		c := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 1}, "C")
		ds := storage.NewDataset(tr)
		cols := [][]byte{parent, child}
		for i, name := range []string{"P", "C"} {
			rel := storage.NewRelation(name, "k")
			for _, b := range cols[i][:min(int(split), len(cols[i]))] {
				rel.AppendRow(int64(b))
			}
			ds.SetRelation(plan.NodeID(i), rel, "k")
		}
		check := func(ds *storage.Dataset) {
			t.Helper()
			cache := NewEdgeStatsCache()
			got := MeasureCached(ds, cache)[c]
			requireGroundTruth(t, ds, c, measureSample, got)
			if direct := Measure(ds)[c]; direct != got {
				t.Fatalf("cached measurement %+v differs from direct %+v", got, direct)
			}
			if tbl := cache.Tables(ds)[c]; tbl == nil {
				t.Fatal("cache kept no table for the measured edge")
			}
			small := 1 + int(sample%8)
			sampled, _ := measureEdge(ds, plan.Root, c, "k", small)
			requireGroundTruth(t, ds, c, small, sampled)
		}
		check(ds)

		appends := ds.Begin()
		pending := 0
		for i, name := range []string{"P", "C"} {
			for _, b := range cols[i][min(int(split), len(cols[i])):] {
				appends.Append(name, int64(b))
				pending++
			}
		}
		if pending > 0 {
			v, err := appends.Commit()
			if err != nil {
				t.Fatal(err)
			}
			ds = v.Dataset
			check(ds)
		}

		deletes := ds.Begin()
		pending = 0
		for i, stream := range [][]byte{parentDel, childDel} {
			n := len(cols[i])
			dead := make(map[int]bool)
			for j, b := range stream {
				if n == 0 {
					break
				}
				row := (int(b) + 251*j) % n
				if !dead[row] {
					dead[row] = true
					deletes.Delete(tr.Name(plan.NodeID(i)), row)
					pending++
				}
			}
		}
		if pending > 0 {
			v, err := deletes.Commit()
			if err != nil {
				t.Fatal(err)
			}
			check(v.Dataset)
		}
	})
}
