package workload

import (
	"maps"
	"math/rand"
	"runtime"
	"slices"
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
// map-based oracle on fuzzed relations with fuzzed histories. The root P
// has two children: C, whose key column is child, and C2, whose key
// column is parent's own bytes, one key per byte, so the tree's two
// edges are measured side by side when MeasureCached fans out. The
// first split rows of each column form the registered relations, the
// rest arrive in a first commit (the append region), and a second commit
// deletes the rows the delete streams pick — parentDel in P, childDel in
// C and C2 — in base and append region alike, compacting whenever the
// storage policy says so. Measured on every snapshot of the chain, once
// at the production sample size and once at a sample of 1–8 rows, which
// sends every relation over 2–16 live parent rows through the sampled
// branch.
func FuzzMeasureEdge(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{2, 2, 4, 9}, uint8(2), []byte{0}, []byte{1}, uint8(0))
	f.Add([]byte{}, []byte{1, 2}, uint8(0), []byte{}, []byte{}, uint8(3))
	f.Add([]byte{7, 7, 7}, []byte{}, uint8(9), []byte{2}, []byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, parent, child []byte, split uint8, parentDel, childDel []byte, sample uint8) {
		tr := plan.NewTree("P")
		tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 1}, "C")
		tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 1}, "C2")
		names := []string{"P", "C", "C2"}
		ds := storage.NewDataset(tr)
		cols := [][]byte{parent, child, parent}
		for i, name := range names {
			rel := storage.NewRelation(name, "k")
			for _, b := range cols[i][:min(int(split), len(cols[i]))] {
				rel.AppendRow(int64(b))
			}
			ds.SetRelation(plan.NodeID(i), rel, "k")
		}
		check := func(ds *storage.Dataset) {
			t.Helper()
			cache := NewEdgeStatsCache()
			got := MeasureCached(ds, cache)
			direct := Measure(ds)
			for _, c := range tr.NonRoot() {
				requireGroundTruth(t, ds, c, measureSample, got[c])
				if direct[c] != got[c] {
					t.Fatalf("edge into %s: cached measurement %+v differs from direct %+v", names[c], got[c], direct[c])
				}
				if tbl := cache.Tables(ds)[c]; tbl == nil {
					t.Fatalf("edge into %s: cache kept no table for the measured edge", names[c])
				}
				small := 1 + int(sample%8)
				sampled, _ := measureEdge(ds, plan.Root, c, "k", small, 1)
				requireGroundTruth(t, ds, c, small, sampled)
			}
		}
		check(ds)

		appends := ds.Begin()
		pending := 0
		for i, name := range names {
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
		for i, stream := range [][]byte{parentDel, childDel, childDel} {
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

// churned commits one batch against ds: every relation gets copies of
// its first 50 rows appended and every 7th row deleted, and relation
// compact a quarter of its base more, so it — and, at these sizes, only
// it — compacts.
func churned(t *testing.T, ds *storage.Dataset, compact plan.NodeID) *storage.Dataset {
	t.Helper()
	d := ds.Begin()
	for i := 0; i < ds.Tree.Len(); i++ {
		id := plan.NodeID(i)
		rel := ds.Relation(id)
		n := 50
		if id == compact {
			n += ds.BaseRows(id) / 4
		}
		for r := 0; r < n; r++ {
			vals := make([]int64, rel.NumCols())
			for c := range vals {
				vals[c] = rel.ColumnAt(c)[r%rel.NumRows()]
			}
			d.Append(rel.Name(), vals...)
		}
		for r := 3; r < rel.NumRows(); r += 7 {
			d.Delete(rel.Name(), r)
		}
	}
	v, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.Dataset.Tree.Len(); i++ {
		id := plan.NodeID(i)
		if packed := v.Dataset.BaseRows(id) == v.Dataset.Relation(id).NumRows(); packed != (id == compact) {
			t.Fatalf("relation %d: compacted = %v after the commit, want %v", id, packed, id == compact)
		}
	}
	return v.Dataset
}

// measuredAt is one MeasureCached call under GOMAXPROCS = procs: the
// statistics, the checksum of every table the cache then holds for ds
// (0 for the root) and the cache's counters.
type measuredAt struct {
	stats        map[plan.NodeID]plan.EdgeStats
	sums         []uint64
	hits, misses int
}

func measureAt(ds *storage.Dataset, cache *EdgeStatsCache, procs int) measuredAt {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	st := MeasureCached(ds, cache)
	sums := make([]uint64, ds.Tree.Len())
	for id, tbl := range cache.Tables(ds) {
		if tbl != nil {
			sums[id] = tbl.Checksum()
		}
	}
	return measuredAt{st, sums, cache.Hits(), cache.Misses()}
}

// TestMeasureFanOutMatchesSequential: measuring a tree's cache misses
// in parallel gives what measuring them one edge at a time on one core
// gives — statistics, tables and cache counters — on fresh snapshots
// and on appended, deleted and compacted ones; a repeated call builds
// nothing, and directions measured before through MeasureEdge are not
// measured again.
func TestMeasureFanOutMatchesSequential(t *testing.T) {
	var snaps []*storage.Dataset
	for _, tr := range []*plan.Tree{
		plan.Snowflake(3, 2, plan.FixedStats(0.7, 2)),
		plan.Star(6, plan.FixedStats(0.6, 2)),
	} {
		ds := Generate(tr, Config{DriverRows: 12000, Seed: 45})
		snaps = append(snaps, ds, churned(t, ds, tr.NonRoot()[1]))
	}
	for si, ds := range snaps {
		edges := ds.Tree.Len() - 1
		seq := measureAt(ds, NewEdgeStatsCache(), 1)
		if seq.hits != 0 || seq.misses != edges {
			t.Fatalf("snapshot %d: a cold cache served %d hits and %d misses for %d edges", si, seq.hits, seq.misses, edges)
		}
		for _, procs := range []int{1, 4} {
			cache := NewEdgeStatsCache()
			fan := measureAt(ds, cache, procs)
			if !maps.Equal(fan.stats, seq.stats) || !slices.Equal(fan.sums, seq.sums) ||
				fan.hits != seq.hits || fan.misses != seq.misses {
				t.Fatalf("snapshot %d at %d procs: %+v, one core measured %+v", si, procs, fan, seq)
			}

			tables := cache.Tables(ds)
			again := measureAt(ds, cache, procs)
			if !maps.Equal(again.stats, seq.stats) || again.hits != edges || again.misses != edges ||
				!slices.Equal(cache.Tables(ds), tables) {
				t.Fatalf("snapshot %d at %d procs: a second call built again (%d hits, %d misses)", si, procs, again.hits, again.misses)
			}

			warm := NewEdgeStatsCache()
			ids := ds.Tree.NonRoot()
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				for _, id := range ids[:2] {
					warm.MeasureEdge(ds, ds.Tree.Parent(id), id, ds.KeyColumn(id))
				}
			}()
			kept := warm.Tables(ds)
			rest := measureAt(ds, warm, procs)
			if !maps.Equal(rest.stats, seq.stats) || !slices.Equal(rest.sums, seq.sums) ||
				rest.hits != 2 || rest.misses != edges {
				t.Fatalf("snapshot %d at %d procs: after two MeasureEdge calls %+v, want %d misses in all", si, procs, rest, edges)
			}
			for _, id := range ids[:2] {
				if warm.Tables(ds)[id] != kept[id] {
					t.Fatalf("snapshot %d at %d procs: relation %d, measured through MeasureEdge, was measured again", si, procs, id)
				}
			}
		}
	}
}

// TestMeasureCachedSeesInPlaceAppend: rows appended in place to a
// relation keep its pointer and liveness bitmap but not its row count,
// which the cache key carries. Measured again through the same cache,
// the appended edge is measured afresh — statistics and table — and
// equals a cold measurement, while its untouched siblings still hit.
func TestMeasureCachedSeesInPlaceAppend(t *testing.T) {
	ds := Generate(plan.Star(3, plan.FixedStats(0.5, 2)), Config{DriverRows: 3000, Seed: 8})
	cache := NewEdgeStatsCache()
	before := MeasureCached(ds, cache)
	tables := cache.Tables(ds)

	child := ds.Tree.NonRoot()[0]
	key := ds.KeyColumn(child)
	rel, parentKeys := ds.Relation(child), ds.Relation(plan.Root).Column(key)
	vals := make([]int64, rel.NumCols())
	for r := 0; r < 3000; r++ {
		for c := range vals {
			vals[c] = rel.ColumnAt(c)[0]
		}
		for c, name := range rel.ColumnNames() {
			if name == key {
				vals[c] = parentKeys[r%len(parentKeys)]
			}
		}
		rel.AppendRow(vals...)
	}

	got := MeasureCached(ds, cache)
	if want := MeasureCached(ds, nil); !maps.Equal(got, want) {
		t.Fatalf("after an in-place append the cache replays %v, a fresh measurement reads %v", got, want)
	}
	if got[child] == before[child] {
		t.Fatalf("appending matching rows left edge %d at %+v; the test proves nothing", child, got[child])
	}
	edges := ds.Tree.Len() - 1
	if cache.Hits() != edges-1 || cache.Misses() != edges+1 {
		t.Fatalf("second measurement: %d hits, %d misses in all; want %d/%d", cache.Hits(), cache.Misses(), edges-1, edges+1)
	}
	now := cache.Tables(ds)
	for _, id := range ds.Tree.NonRoot() {
		if reused := now[id] == tables[id]; now[id] == nil || reused == (id == child) {
			t.Fatalf("relation %d: table %p, reused %v, after appending to relation %d", id, now[id], reused, child)
		}
	}
}
