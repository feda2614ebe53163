package hashtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// skewedProbe builds a table over a Zipf-ish skewed key set and a
// probe batch sharing the skew, with an optional sparse mask (about
// 1/8 lanes selected).
func skewedProbe(seed int64, n int) (*Table, []int64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.3, 8, uint64(n/4+1))
	build := make([]int64, n)
	for i := range build {
		build[i] = int64(z.Uint64())
	}
	table := Build(buildRelation(build), "k", nil)
	keys := make([]int64, n)
	sparse := make([]bool, n)
	for i := range keys {
		keys[i] = int64(z.Uint64())
		sparse[i] = rng.Intn(8) == 0
	}
	return table, keys, sparse
}

// deltaProbeTable builds a versioned table carrying tombstones in the
// packed part and in the append region, so both stages of the kernel
// cross both directories and skip dead entries in each.
func deltaProbeTable(t *testing.T, seed int64, n int) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds := deltaTestDataset(n, rng)
	tbl := buildCold(ds, 1)
	// Two commits of n/16 ops stay under the compaction threshold (a
	// quarter of the base) and leave tombstones + an append region
	// behind; the second one's deletes also land on rows the first
	// appended.
	for range 2 {
		v, err := randomMutationBatch(ds, rng, n/16)
		if err != nil {
			t.Fatalf("mutation batch: %v", err)
		}
		cur, d := v.Dataset, v.Deltas[0]
		id := plan.NodeID(1)
		tbl = tbl.ApplyDelta(cur.Relation(id), "k", DeltaSpec{
			BaseRows:     cur.BaseRows(id),
			BaseLive:     cur.BaseLive(id),
			Live:         cur.Live(id),
			AppendedFrom: d.AppendedFrom,
			Deleted:      d.Deleted,
			Compacted:    d.Compacted,
		}, 1, nil)
		ds = cur
	}
	if tbl.deadCount == 0 || tbl.app == nil || tbl.app.deadCount == 0 {
		t.Fatal("versioned table lacks tombstones in one of its regions; test is vacuous")
	}
	return tbl
}

// requireModel holds a batch result to model (key → live rows,
// ascending) over the lanes pass sets (nil: all): rows, counts and
// offsets, Probed equal to probed, and TagHits + TagMisses to Probed.
func requireModel(t *testing.T, name string, res *ProbeResult, keys []int64, model map[int64][]int32, pass []bool, probed int) {
	t.Helper()
	if res.Probed != probed || res.TagHits+res.TagMisses != probed {
		t.Fatalf("%s: Probed %d TagHits %d TagMisses %d over %d probed lanes",
			name, res.Probed, res.TagHits, res.TagMisses, probed)
	}
	if len(res.Counts) != len(keys) || len(res.Offsets) != len(keys)+1 || int(res.Offsets[len(keys)]) != len(res.Rows) {
		t.Fatalf("%s: %d counts, %d offsets, %d rows for %d keys", name, len(res.Counts), len(res.Offsets), len(res.Rows), len(keys))
	}
	for i, k := range keys {
		var want []int32
		if pass == nil || pass[i] {
			want = model[k]
		}
		got := res.Rows[res.Offsets[i]:res.Offsets[i+1]]
		if !slices.Equal(got, want) || int(res.Counts[i]) != len(want) {
			t.Fatalf("%s lane %d key %d: rows %v count %d, model %v", name, i, k, got, res.Counts[i], want)
		}
	}
}

// countSet is the number of lanes a selection mask probes (nil: all n).
func countSet(sel []bool, n int) int {
	if sel == nil {
		return n
	}
	c := 0
	for _, s := range sel {
		if s {
			c++
		}
	}
	return c
}

// TestProbePipelineMatchesBatch: ProbeBatchInto must answer like the
// naive model of the table's live entries — rows, counts, offsets and
// the probe counters — over random and skewed keys, nil/dense/sparse
// selection masks, and delta tables.
func TestProbePipelineMatchesBatch(t *testing.T) {
	type tc struct {
		name  string
		table *Table
		keys  []int64
		sels  [][]bool
	}
	rt, rkeys, rsel := randomProbe(11, 5000) // not a multiple of probeBlock
	st, skeys, ssparse := skewedProbe(12, 4096)
	dt := deltaProbeTable(t, 13, 2048)
	dkeys := make([]int64, 777)
	rng := rand.New(rand.NewSource(14))
	for i := range dkeys {
		dkeys[i] = rng.Int63n(2048)
	}
	dsel, dsparse := make([]bool, len(dkeys)), make([]bool, len(dkeys))
	for i := range dsel {
		dsel[i] = rng.Intn(3) > 0
		dsparse[i] = rng.Intn(8) == 0
	}
	cases := []tc{
		{"random", rt, rkeys, [][]bool{nil, rsel}},
		{"skewed-sparse", st, skeys, [][]bool{nil, ssparse}},
		{"delta", dt, dkeys, [][]bool{nil, dsel, dsparse}},
		{"empty", rt, nil, [][]bool{nil}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			model := modelOf(c.table)
			for si, sel := range c.sels {
				res := probeBatch(c.table, c.keys, sel)
				requireModel(t, fmt.Sprintf("sel %d", si), &res, c.keys, model, sel, countSet(sel, len(c.keys)))
			}
		})
	}
}

// TestProbePipelineInterleavedSchedule: two tables probed alternately
// through one reused ProbeResult — as the executor reuses its worker's
// result from one join to the next — must each produce exactly what a
// solo probe into a fresh result produces: nothing of one probe
// survives into the next.
func TestProbePipelineInterleavedSchedule(t *testing.T) {
	ta, keysA, selA := randomProbe(21, 3000)
	tb, keysB, _ := skewedProbe(22, 1000)
	wantA := probeBatch(ta, keysA, selA)
	wantB := probeBatch(tb, keysB, nil)

	var res ProbeResult
	for round := range 3 {
		ta.ProbeBatchInto(keysA, selA, &res)
		if !equalResults(res, wantA) {
			t.Fatalf("round %d: table A diverged through the reused result", round)
		}
		tb.ProbeBatchInto(keysB, nil, &res)
		if !equalResults(res, wantB) {
			t.Fatalf("round %d: table B diverged through the reused result", round)
		}
	}
}

// TestProbePipelineFusedMatchesFilterThenProbe: a join step's filter
// pass over the table's own bitvector projection, then ProbeBatchInto
// behind the survivor mask, on plain and delta tables under nil, dense
// and sparse selections: Probed equals the filter's survivors, and rows
// and counts equal the model's over the survivors. The projection has
// no false negatives, so no lane the filter drops has a live match.
func TestProbePipelineFusedMatchesFilterThenProbe(t *testing.T) {
	for _, n := range []int{1024, 2049} {
		table, keys, sel := randomProbe(31, n)
		if n == 2049 {
			// The larger case runs against a delta table; its filter
			// covers the append region too.
			table = deltaProbeTable(t, 32, n)
		}
		model := modelOf(table)
		sparse := make([]bool, len(keys))
		for i := range sparse {
			sparse[i] = i%7 == 0
		}
		for si, s := range [][]bool{nil, sel, sparse} {
			pass := filterPass(table, keys, s)
			for i, k := range keys {
				if (s == nil || s[i]) && !pass[i] && len(model[k]) > 0 {
					t.Fatalf("n=%d sel %d lane %d: filter dropped key %d with live rows", n, si, i, k)
				}
			}
			res := probeBatch(table, keys, pass)
			requireModel(t, fmt.Sprintf("n=%d sel %d", n, si), &res, keys, model, pass, countSet(pass, len(keys)))
		}
	}
}

// filterPass is the bitvector filter a join step runs before its table
// probe, over the table's own projection (what bitvector.FromTable
// wraps): the survivor mask of the lanes sel selects.
func filterPass(tbl *Table, keys []int64, sel []bool) []bool {
	fbits, fshift := tbl.FilterWords(), tbl.Shift()+3
	pass := make([]bool, len(keys))
	for i, k := range keys {
		h := Hash64(k)
		pass[i] = (sel == nil || sel[i]) && fbits[h>>fshift]&Tag(h, fshift, 6) != 0
	}
	return pass
}

// TestReduceLiveWordRangesMatchWhole: ReduceLive over any split of the
// mask into word-aligned ranges must equal one ReduceLive over the
// whole — final mask and stats — for plain and delta tables, including
// when driven range by range in a skewed order across two sibling
// tables (the semi-join wavefront).
func TestReduceLiveWordRangesMatchWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n := 4096 + 37
	keyCol := make(storage.Column, n)
	for i := range keyCol {
		keyCol[i] = rng.Int63n(1500)
	}
	build := make([]int64, 1000)
	for i := range build {
		build[i] = rng.Int63n(1500)
	}
	tables := []*Table{
		Build(buildRelation(build), "k", nil),
		deltaProbeTable(t, 42, 2048),
	}
	// reduceRange reduces words [wi, wi+span) of mask.
	reduceRange := func(tbl *Table, col storage.Column, mask *storage.Bitmap, wi, span int) ProbeStats {
		return tbl.ReduceLive(col, mask, wi<<6, min((wi+span)<<6, n))
	}
	nWords := (n + 63) / 64
	for ti, table := range tables {
		model := modelOf(table)
		for _, span := range []int{1, 3, 16} {
			seqMask := storage.NewBitmap(n)
			wordMask := storage.NewBitmap(n)
			for i := 0; i < n; i++ {
				if rng.Intn(3) == 0 {
					seqMask.Clear(i)
					wordMask.Clear(i)
				}
			}
			before := seqMask.Clone()
			wantSt := table.ReduceLive(keyCol, seqMask, 0, n)
			var gotSt ProbeStats
			for wi := 0; wi < nWords; wi += span {
				gotSt.Add(reduceRange(table, keyCol, wordMask, wi, span))
			}
			if gotSt != wantSt {
				t.Fatalf("table %d span %d: stats %+v want %+v", ti, span, gotSt, wantSt)
			}
			if wantSt.Probed != before.Count() || wantSt.TagHits+wantSt.TagMisses != wantSt.Probed {
				t.Fatalf("table %d: stats %+v over %d set rows", ti, wantSt, before.Count())
			}
			if !reflect.DeepEqual(seqMask.Words(), wordMask.Words()) {
				t.Fatalf("table %d span %d: range-addressed reduction diverged from ReduceLive", ti, span)
			}
			for i := 0; i < n; i++ {
				if seqMask.Get(i) != (before.Get(i) && len(model[keyCol[i]]) > 0) {
					t.Fatalf("table %d row %d: kept %v, was set %v, model matches %d",
						ti, i, seqMask.Get(i), before.Get(i), len(model[keyCol[i]]))
				}
			}
		}
	}

	// Sibling wavefront: two tables reduce one mask; child 1 trails
	// child 0 by one word. Must equal the child-after-child sweep.
	keyColB := make(storage.Column, n)
	for i := range keyColB {
		keyColB[i] = rng.Int63n(1500)
	}
	buildB := make([]int64, 800)
	for i := range buildB {
		buildB[i] = rng.Int63n(1500)
	}
	tblA, tblB := tables[1], Build(buildRelation(buildB), "k", nil)
	seqMask := storage.NewBitmap(n)
	waveMask := storage.NewBitmap(n)
	var wantA, wantB, gotA, gotB ProbeStats
	wantA = tblA.ReduceLive(keyCol, seqMask, 0, n)
	wantB = tblB.ReduceLive(keyColB, seqMask, 0, n)
	for step := 0; step < nWords+1; step++ {
		if step < nWords {
			gotA.Add(reduceRange(tblA, keyCol, waveMask, step, 1))
		}
		if step >= 1 {
			gotB.Add(reduceRange(tblB, keyColB, waveMask, step-1, 1))
		}
	}
	if gotA != wantA || gotB != wantB {
		t.Fatalf("wavefront stats (%+v, %+v) want (%+v, %+v)", gotA, gotB, wantA, wantB)
	}
	if !reflect.DeepEqual(seqMask.Words(), waveMask.Words()) {
		t.Fatal("wavefront reduction diverged from sequential sibling sweep")
	}
}

// TestProbeResultAlternatingSizesAllocationFree pins the scratch
// headroom policy: once a ProbeResult has served its largest batch,
// alternating between large and small probes (the executor's short
// final chunk, queries with different chunk sizes) must not
// reallocate — Counts/Offsets/runs grow with 25% headroom and Rows
// keeps its capacity through the length-0 reslice.
func TestProbeResultAlternatingSizesAllocationFree(t *testing.T) {
	table, keys, sel := randomProbe(51, 8192)
	var res ProbeResult
	table.ProbeBatchInto(keys, nil, &res) // reach steady state at the large size
	small := keys[:64]
	allocs := testing.AllocsPerRun(50, func() {
		table.ProbeBatchInto(keys, sel, &res)
		table.ProbeBatchInto(small, nil, &res)
		table.ProbeBatchInto(keys, nil, &res)
		table.ProbeBatchInto(small, sel[:64], &res)
	})
	if allocs > 0 {
		t.Errorf("alternating large/small probes allocate %.1f times per cycle", allocs)
	}

}

// TestProbesMatchMapModel is the differential test of every probe entry
// point against a map[int64][]int32 of the live rows, on clustered
// columns (each key's rows adjacent, as the workload generator lays
// them out) and random ones, unmasked and masked, probed by clustered
// (ascending) and shuffled keys: counts, rows in ascending order,
// offsets, and ProbeStats, whose tag split the model derives from its
// own tag words — the OR of Tag over each bucket's live keys at the
// table's public geometry.
func TestProbesMatchMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	const n = 3*probeBlock*8 + 11
	clustered := make([]int64, 0, n)
	for k := int64(0); len(clustered) < n; k++ {
		for range 1 + rng.Intn(4) {
			clustered = append(clustered, 3*k)
		}
	}
	random := make([]int64, n)
	for i := range random {
		random[i] = rng.Int63n(n)
	}
	for _, col := range []struct {
		name string
		keys []int64
	}{{"clustered", clustered[:n]}, {"random", random}} {
		rel := buildRelation(col.keys)
		for _, live := range []*storage.Bitmap{nil, randomMask(rng, n, 0.7), randomMask(rng, n, 0.3)} {
			tbl := Build(rel, "k", live)
			model := make(map[int64][]int32)
			tags := make([]uint64, tbl.NumBuckets())
			for r, k := range col.keys {
				if live == nil || live.Get(r) {
					model[k] = append(model[k], int32(r))
					h := Hash64(k)
					tags[Bucket(h, tbl.Shift())] |= Tag(h, tbl.Shift(), 4)
				}
			}
			probe := make([]int64, 0, 2*n)
			for k := int64(-2); k < 3*n/2; k++ {
				probe = append(probe, k)
			}
			shuffled := slices.Clone(probe)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			for _, keys := range [][]int64{probe, shuffled} {
				name := fmt.Sprintf("%s masked=%v", col.name, live != nil)
				var want ProbeStats
				for _, k := range keys {
					h := Hash64(k)
					hit := tags[Bucket(h, tbl.Shift())]&Tag(h, tbl.Shift(), 4) != 0
					want.Add(ProbeStats{Probed: 1, TagHits: b2i(hit), TagMisses: 1 - b2i(hit)})
				}
				res := probeBatch(tbl, keys, nil)
				requireModel(t, name, &res, keys, model, nil, len(keys))
				if got := (ProbeStats{res.Probed, res.TagHits, res.TagMisses}); got != want {
					t.Fatalf("%s: ProbeBatchInto stats %+v, model %+v", name, got, want)
				}
				counts := make([]int32, len(keys))
				found := make([]bool, len(keys))
				mask := storage.NewBitmap(len(keys))
				for _, st := range []ProbeStats{
					tbl.ProbeCounts(keys, nil, counts),
					tbl.ProbeContains(keys, nil, found),
					tbl.ReduceLive(keys, mask, 0, len(keys)),
				} {
					if st != want {
						t.Fatalf("%s: stats %+v, model %+v", name, st, want)
					}
				}
				for i, k := range keys {
					m := len(model[k])
					if int(counts[i]) != m || found[i] != (m > 0) || mask.Get(i) != (m > 0) {
						t.Fatalf("%s key %d: count %d, contains %v, kept %v; model has %d rows",
							name, k, counts[i], found[i], mask.Get(i), m)
					}
				}
			}
		}
	}
}
