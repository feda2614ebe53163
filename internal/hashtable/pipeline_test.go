package hashtable

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// drivePipeline runs a pipeline to completion in the trivial schedule
// (Stage1(b) then Stage2(b), ascending) — the schedule ProbeBatchInto
// itself uses, and the baseline any interleaved schedule must match.
func drivePipeline(p *ProbePipeline) {
	for b := 0; b < p.NumBlocks(); b++ {
		p.Stage1(b)
		p.Stage2(b)
	}
	p.End()
}

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

// TestProbePipelineMatchesBatch: a staged pipeline drive must be
// bit-identical to ProbeBatchInto — result slices and every counter —
// over random and skewed keys, nil/dense/sparse selection masks, and
// delta tables, and both must answer like the naive model of the
// table's live entries.
func TestProbePipelineMatchesBatch(t *testing.T) {
	type tc struct {
		name  string
		table *Table
		keys  []int64
		sels  [][]bool
	}
	rt, rkeys, rsel := randomProbe(11, 5000) // not a multiple of ProbeBlock
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
				var want, got ProbeResult
				c.table.ProbeBatchInto(c.keys, sel, &want)
				for i, k := range c.keys {
					var rows []int32
					if sel == nil || sel[i] {
						rows = model[k]
					}
					if !slices.Equal(want.Rows[want.Offsets[i]:want.Offsets[i+1]], rows) {
						t.Fatalf("sel %d lane %d key %d: rows %v, model %v", si, i, k,
							want.Rows[want.Offsets[i]:want.Offsets[i+1]], rows)
					}
				}
				var p ProbePipeline
				p.Begin(c.table, c.keys, sel, &got)
				drivePipeline(&p)
				if got.Probed != want.Probed || got.TagHits != want.TagHits || got.TagMisses != want.TagMisses {
					t.Fatalf("sel %d: counters (%d,%d,%d) want (%d,%d,%d)", si,
						got.Probed, got.TagHits, got.TagMisses, want.Probed, want.TagHits, want.TagMisses)
				}
				if !reflect.DeepEqual(got.Counts, want.Counts) ||
					!reflect.DeepEqual(got.Offsets, want.Offsets) ||
					!reflect.DeepEqual(got.Rows, want.Rows) {
					t.Fatalf("sel %d: pipeline result diverged from ProbeBatchInto", si)
				}
			}
		})
	}
}

// TestProbePipelineInterleavedSchedule: two pipelines over different
// tables driven round-robin (the executor's wavefront) must each
// produce exactly what a solo drive produces — stages only touch their
// own block, so schedules cannot interfere.
func TestProbePipelineInterleavedSchedule(t *testing.T) {
	ta, keysA, selA := randomProbe(21, 3000)
	tb, keysB, _ := skewedProbe(22, 3000)
	var wantA, wantB ProbeResult
	ta.ProbeBatchInto(keysA, selA, &wantA)
	tb.ProbeBatchInto(keysB, nil, &wantB)

	var gotA, gotB ProbeResult
	var pa, pb ProbePipeline
	pa.Begin(ta, keysA, selA, &gotA)
	pb.Begin(tb, keysB, nil, &gotB)
	nb := pa.NumBlocks()
	if pb.NumBlocks() != nb {
		t.Fatalf("block counts differ: %d vs %d", nb, pb.NumBlocks())
	}
	// Skewed wavefront: pb trails pa by one block.
	for step := 0; step < nb+1; step++ {
		if step < nb {
			pa.Stage1(step)
		}
		if step >= 1 {
			pb.Stage1(step - 1)
		}
		if step < nb {
			pa.Stage2(step)
		}
		if step >= 1 {
			pb.Stage2(step - 1)
		}
	}
	pa.End()
	pb.End()
	for _, cmp := range []struct {
		name      string
		got, want *ProbeResult
	}{{"A", &gotA, &wantA}, {"B", &gotB, &wantB}} {
		if cmp.got.Probed != cmp.want.Probed ||
			!reflect.DeepEqual(cmp.got.Counts, cmp.want.Counts) ||
			!reflect.DeepEqual(cmp.got.Rows, cmp.want.Rows) {
			t.Fatalf("pipeline %s diverged under interleaved schedule", cmp.name)
		}
	}
}

// TestProbePipelineFusedMatchesFilterThenProbe: the fused filter+table
// stage must equal the unfused sequence — a filter ProbeContains pass
// producing a mask, then a table probe under that mask — in results,
// pass mask, and the exact counter split, on plain and delta tables
// under nil, dense and sparse selections.
func TestProbePipelineFusedMatchesFilterThenProbe(t *testing.T) {
	for _, n := range []int{1024, 2049} {
		table, keys, sel := randomProbe(31, n)
		if n == 2049 {
			// The larger case runs against a delta table; its filter
			// covers the append region too.
			table = deltaProbeTable(t, 32, n)
		}
		sparse := make([]bool, len(keys))
		for i := range sparse {
			sparse[i] = i%7 == 0
		}
		// The table's own projection, as the executor takes it through
		// bitvector.FromTable.
		fbits := table.FilterWords()
		fshift := table.Shift() + 3
		for _, s := range [][]bool{nil, sel, sparse} {
			// Unfused reference: filter pass, then masked table probe.
			pass := make([]bool, len(keys))
			filterProbed, filtered := 0, 0
			for i, key := range keys {
				if s != nil && !s[i] {
					continue
				}
				filterProbed++
				h := Hash64(key)
				if fbits[h>>fshift]&Tag(h, fshift, 6) != 0 {
					pass[i] = true
				} else {
					filtered++
				}
			}
			var want ProbeResult
			table.ProbeBatchInto(keys, pass, &want)

			var got ProbeResult
			gotPass := make([]bool, len(keys))
			var p ProbePipeline
			p.BeginFused(table, keys, s, &got, fbits, fshift, gotPass)
			drivePipeline(&p)

			if p.FilterProbed() != filterProbed || p.Filtered() != filtered {
				t.Fatalf("n=%d: filter split (%d,%d) want (%d,%d)",
					n, p.FilterProbed(), p.Filtered(), filterProbed, filtered)
			}
			if !reflect.DeepEqual(gotPass, pass) {
				t.Fatalf("n=%d: fused pass mask diverged", n)
			}
			if got.Probed != want.Probed || got.TagHits != want.TagHits || got.TagMisses != want.TagMisses ||
				!reflect.DeepEqual(got.Counts, want.Counts) ||
				!reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("n=%d: fused probe diverged from filter-then-probe", n)
			}
			if want.Probed != filterProbed-filtered {
				t.Fatalf("n=%d: table probes %d, filter survivors %d", n, want.Probed, filterProbed-filtered)
			}
		}
	}
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

	// The pipeline shares the same scratch policy.
	var p ProbePipeline
	p.Begin(table, keys, nil, &res)
	drivePipeline(&p)
	allocs = testing.AllocsPerRun(50, func() {
		p.Begin(table, keys, sel, &res)
		drivePipeline(&p)
		p.Begin(table, small, nil, &res)
		drivePipeline(&p)
	})
	if allocs > 0 {
		t.Errorf("alternating pipeline probes allocate %.1f times per cycle", allocs)
	}
}
