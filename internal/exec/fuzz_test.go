package exec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// fuzzTree builds a star, path or snowflake of n relations. The
// snowflake gives the driver ⌈(n-1)/2⌉ children and hangs the rest one
// under each of the first of them.
func fuzzTree(shape, n int, src plan.StatsSource) *plan.Tree {
	switch shape {
	case 0:
		return plan.Star(n-1, src)
	case 1:
		return plan.Path(n, src)
	}
	tr := plan.NewTree("")
	k := n / 2 // ⌈(n-1)/2⌉
	for i := 0; i < k; i++ {
		tr.AddChild(plan.Root, src(), "")
	}
	for i := 0; i < n-1-k; i++ {
		tr.AddChild(plan.NodeID(1+i), src(), "")
	}
	return tr
}

// emptyDataset is a dataset over tr with workload.Generate's columns
// and no rows at all, which Generate refuses to make.
func emptyDataset(tr *plan.Tree) *storage.Dataset {
	ds := storage.NewDataset(tr)
	for _, id := range tr.TopDown() {
		cols := []string{"id", "v"}
		key := ""
		if id != plan.Root {
			key = fmt.Sprintf("k%d", id)
			cols = append(cols, key)
		}
		for _, c := range tr.Children(id) {
			cols = append(cols, fmt.Sprintf("k%d", c))
		}
		ds.SetRelation(id, storage.NewRelation(tr.Name(id), cols...), key)
	}
	return ds
}

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

// execCase is one generated query, in FuzzExecCounters' encoding:
//
//   - a star, path or snowflake (shape % 3) of 2–6 relations
//     (2 + nrel % 5) with per-edge m drawn from [mLo, 1], mLo =
//     (1 + m % 100) / 100, and fo from [1, 1 + (fo % 5) / 4]; with
//     fo ≥ 0x80 the driver's child edges draw their fanouts from
//     Zipf(1.1, 8) instead, and every edge gains 30 % dangling child
//     rows;
//   - 0–3 000 driver rows (rows % 3001);
//   - STD, BVP+STD, SJ+STD, COM, BVP+COM or SJ+COM (strategy % 6) over
//     a random valid order, with flat or factorized output;
//   - 1, 2 or 8 workers (workers % 3);
//   - a chunk size of 1–2 048 rows, or within 15 of math.MaxInt for
//     chunk ≥ 0xFFF0;
//   - at most one equality selection on a relation's id column (sel =
//     0: none; otherwise relation sel&7 mod n keeps the row with id
//     sel>>3 − 1, so sel>>3 = 0 keeps nothing);
//   - collect: a flat run also hands its tuples to CollectOutput;
//   - shards: 0 runs unsharded only; otherwise 2 + (shards−1) % 4
//     shards of shard.Partition also run, each restricted to its
//     DriverRows, and MergeShardStats folds them; an SJ strategy's
//     shards run both on their own and from one shared ReduceBuildSide;
//   - commits: commits % 4 seeded append/delete batches, each checked;
//     with commits & 4 the last also compacts every relation;
//   - provider (provider % 4): 0 none; 1 a cold tableStore at every
//     version; 2 a tableStore warmed at version 0 and carried across
//     the commits by ApplyDelta; 3 plan-time tables: one
//     workload.EdgeStatsCache measures every version and serves
//     Tables(ds), as core.Execute does.
type execCase struct {
	shape, nrel, m, fo        uint8
	rows                      uint16
	strategy                  uint8
	flat                      bool
	workers                   uint8
	chunk                     uint16
	sel                       uint8
	collect                   bool
	seed                      int64
	shards, commits, provider uint8
}

// query generates c's version-0 dataset and options, and the rng that
// then draws its commits.
func (c execCase) query() (*storage.Dataset, Options, *rand.Rand) {
	chunkSize := 1 + int(c.chunk)%2048
	if c.chunk >= 0xFFF0 {
		chunkSize = math.MaxInt - int(c.chunk&0xF)
	}
	rng := rand.New(rand.NewSource(c.seed))
	n := 2 + int(c.nrel)%5
	mLo := float64(1+int(c.m)%100) / 100
	tr := fuzzTree(int(c.shape)%3, n, plan.UniformStats(rng, mLo, 1, 1, 1+float64(c.fo%5)/4))
	ds := emptyDataset(tr)
	if driver := int(c.rows) % 3001; driver > 0 {
		cfg := workload.Config{DriverRows: driver, Seed: c.seed}
		if c.fo >= 0x80 {
			cfg.Fanouts, cfg.DanglingFraction = map[plan.NodeID]workload.FanoutDist{}, 0.3
			for _, id := range tr.Children(plan.Root) {
				cfg.Fanouts[id] = workload.NewZipf(1.1, 8)
			}
		}
		ds = workload.Generate(tr, cfg)
	}
	opts := Options{
		Strategy:    []cost.Strategy{cost.STD, cost.BVPSTD, cost.SJSTD, cost.COM, cost.BVPCOM, cost.SJCOM}[c.strategy%6],
		Order:       randomOrder(tr, rng),
		FlatOutput:  c.flat,
		ChunkSize:   chunkSize,
		Parallelism: []int{1, 2, 8}[c.workers%3],
	}
	if c.sel != 0 {
		opts.Selections = []Selection{{Rel: plan.NodeID(int(c.sel&7) % n), Column: "id", Value: int64(c.sel>>3) - 1}}
	}
	return ds, opts, rng
}

// checkCase runs c at every version and fails t unless each run agrees
// with the oracles: the provider-less unsharded run with the
// countingReference on every counter and with ReferenceOpts on the
// output; its collected tuples, merged shards and provider runs with
// it (a provider run apart from its cache counters, which must be the
// tables it was and was not served — a plan-time provider is served
// every relation state its cache measured, and measures each version's
// relations); an SJ case's build side, reduced once, with its phase-1
// counters, a whole-driver run on that build side with it on every
// attributed counter, and each SJ shard on the build side with the same
// shard reducing its own, both with its SemiJoinProbes — every run that
// reduced its own phase 1 executing all it attributes, every run on the
// build side no phase-1 counter of it; and, after the
// commits, a rerun of version 0 with version 0's first run. It returns the Stats
// of that first run: provider-less and unsharded.
func checkCase(t *testing.T, c execCase) Stats {
	t.Helper()
	ds, opts, rng := c.query()
	label := fmt.Sprintf("%+v", c)
	var shards []shard.Shard
	if c.shards != 0 {
		shards = must(shard.Partition(ds, 2+int(c.shards-1)%4))
	}
	var carried *tableStore
	var measured *workload.EdgeStatsCache
	switch c.provider % 4 {
	case 2:
		carried = newTableStore()
		must(Run(ds, Options{Strategy: cost.BVPCOM, Order: opts.Order, Artifacts: carried}))
	case 3:
		measured = workload.NewEdgeStatsCache()
	}
	v0 := ds
	var first Stats
	for v := 0; ; v++ {
		got := checkVersion(t, label, c, ds, opts, shards, carried, measured)
		if v == 0 {
			first = got
		}
		if v == int(c.commits%4) {
			break
		}
		ver := mutateRandomly(t, ds, rng, 1+rng.Intn(40), c.commits&4 != 0 && v+1 == int(c.commits%4))
		ds = ver.Dataset
		if shards != nil {
			shards = must(shard.Advance(shards, ds, ver))
		}
		if carried != nil {
			carried.apply(ver)
		}
	}
	if ds != v0 {
		if again := must(Run(v0, opts)); !reflect.DeepEqual(again, first) {
			t.Errorf("%s: version 0 answers differently after the commits:\n got %+v\nwant %+v", label, again, first)
		}
	}
	return first
}

// checkVersion is checkCase at one version.
func checkVersion(t *testing.T, label string, c execCase, ds *storage.Dataset, opts Options,
	shards []shard.Shard, carried *tableStore, measured *workload.EdgeStatsCache) Stats {
	t.Helper()
	label = fmt.Sprintf("%s v%d %v order=%v chunk=%d par=%d sel=%v",
		label, ds.Version(), ds.Tree, opts.Order, opts.ChunkSize, opts.Parallelism, opts.Selections)
	o := opts
	var mu sync.Mutex
	var collected int64
	var collectedSum uint64
	if c.collect && opts.FlatOutput {
		o.CollectOutput = func(tuple []int32) {
			mu.Lock()
			collected++
			collectedSum += checksumCanonical(tuple)
			mu.Unlock()
		}
	}
	got, err := Run(ds, o)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if o.CollectOutput != nil && (collected != got.OutputTuples || collectedSum != got.Checksum) {
		t.Errorf("%s: collected %d tuples (checksum %x), Stats report %d (%x)",
			label, collected, collectedSum, got.OutputTuples, got.Checksum)
	}
	if !reflect.DeepEqual(got.Executed(), got) {
		t.Errorf("%s: a run that reduced its own phase 1 executed\n %+v\nof\n %+v", label, got.Executed(), got)
	}
	requireCounts(t, label, opts, got, countingReference(ds, opts))
	count, sum := ReferenceOpts(ds, nil, opts.Selections)
	checksum := got.Checksum
	if opts.Strategy.Factorized() && !opts.FlatOutput {
		checksum, sum = 0, 0 // no flat tuples, no checksum
	}
	if got.OutputTuples != count || checksum != sum {
		t.Errorf("%s %v: %d tuples, checksum %x; ReferenceOpts %d, %x",
			label, opts.Strategy, got.OutputTuples, checksum, count, sum)
	}

	var build *BuildSide
	if opts.Strategy.Reduction() == cost.SemiJoin {
		// The build side is the cold run's whole phase 1, and a run that
		// adopts it answers as the cold run.
		build = must(ReduceBuildSide(ds, opts))
		if b := build.Stats(); b.SemiJoinProbes != got.SemiJoinProbes ||
			b.BuildTagHits != got.BuildTagHits || b.BuildTagMisses != got.BuildTagMisses {
			t.Errorf("%s: build side counts %d semi-join probes, tags %d/%d; the cold run %d, %d/%d", label,
				b.SemiJoinProbes, b.BuildTagHits, b.BuildTagMisses, got.SemiJoinProbes, got.BuildTagHits, got.BuildTagMisses)
		}
		o := opts
		o.BuildSide = build
		requireAdopted(t, label+": run on a shared build side", must(Run(ds, o)), got)
	}
	if shards != nil {
		parts := make([]Stats, len(shards))
		for i, sh := range shards {
			o := opts
			o.DriverRows = sh.Rows
			parts[i] = must(Run(sh.Parent, o))
			if build != nil {
				own := parts[i]
				o.BuildSide = build
				parts[i] = must(Run(sh.Parent, o))
				requireAdopted(t, fmt.Sprintf("%s: shard %d on the shared build side", label, i), parts[i], own)
				for _, st := range []Stats{own, parts[i]} {
					if st.SemiJoinProbes != got.SemiJoinProbes {
						t.Errorf("%s: shard %d counts %d semi-join probes, the unsharded run %d",
							label, i, st.SemiJoinProbes, got.SemiJoinProbes)
					}
				}
			}
		}
		merged := MergeShardStats(parts)
		if merged.Phase1Adopted != (build != nil) {
			t.Errorf("%s: %d shards merge to Phase1Adopted %v, on a shared build side %v",
				label, len(shards), merged.Phase1Adopted, build != nil)
		}
		if merged.Phase1Adopted = false; !reflect.DeepEqual(merged, got) {
			t.Errorf("%s: %d shards merge to\n %+v\nunsharded\n %+v", label, len(shards), merged, got)
		}
	}

	if c.provider%4 != 0 {
		store := carried
		if store == nil {
			store = newTableStore()
		}
		if measured != nil {
			// Every version's relation states are measured: the tables
			// of untouched relations are an earlier version's.
			workload.MeasureCached(ds, measured)
			for id, tbl := range measured.Tables(ds) {
				if tbl != nil {
					store.tables[plan.NodeID(id)] = tbl
				}
			}
		}
		store.skip = 0
		for _, s := range opts.Selections {
			store.skip = store.skip.With(s.Rel)
		}
		// The provider is asked for every table the strategy does not
		// reduce; a carried or plan-time one serves those of unselected
		// relations.
		var asked, served int64
		for _, id := range ds.Tree.NonRoot() {
			if opts.Strategy.Reduction() != cost.SemiJoin || len(ds.Tree.Children(id)) == 0 {
				asked++
				if (carried != nil || measured != nil) && !store.skip.Has(id) {
					served++
				}
			}
		}
		o := opts
		o.Artifacts = store
		pg := must(Run(ds, o))
		if pg.CacheHits != served || pg.CacheMisses != asked-served || !reflect.DeepEqual(stripProvider(pg), got) {
			t.Errorf("%s: provider %d run (want %d hits, %d misses)\n %+v\nprovider-less\n %+v",
				label, c.provider%4, served, asked-served, pg, got)
		}
	}
	return got
}

// requireAdopted fails t unless st is a run that adopted its phase 1:
// it executed no phase-1 counter, and attributes exactly want's, the
// Stats of the same run reducing its own.
func requireAdopted(t *testing.T, label string, st, want Stats) {
	t.Helper()
	ex := st.Executed()
	if !st.Phase1Adopted || ex.SemiJoinProbes != 0 || ex.BuildTagHits != 0 || ex.BuildTagMisses != 0 ||
		ex.TagHits+ex.TagMisses != ex.HashProbes {
		t.Errorf("%s: adopting run executed phase-1 work\n %+v\nof\n %+v", label, ex, st)
	}
	if st.Phase1Adopted = false; !reflect.DeepEqual(st, want) {
		t.Errorf("%s\n %+v\nreducing its own\n %+v", label, st, want)
	}
}

// apply carries the store's tables to the version v committed, as the
// serving layer's repair does.
func (a *tableStore) apply(v storage.Version) {
	ds := v.Dataset
	for _, d := range v.Deltas {
		if tbl := a.tables[d.Rel]; tbl != nil {
			a.tables[d.Rel] = tbl.ApplyDelta(ds.Relation(d.Rel), ds.KeyColumn(d.Rel), hashtable.DeltaSpec{
				BaseRows: ds.BaseRows(d.Rel), BaseLive: ds.BaseLive(d.Rel), Live: ds.Live(d.Rel),
				AppendedFrom: d.AppendedFrom, Deleted: d.Deleted, Compacted: d.Compacted,
			}, 1, nil)
		}
	}
}

// must returns v, panicking on err: the callers' failures are test
// bugs or executor errors, and a panic in a test fails it with a stack.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// FuzzExecCounters runs generated queries (execCase) through checkCase.
func FuzzExecCounters(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, nrel, m, fo uint8, rows uint16, strategy uint8, flat bool, workers uint8,
		chunk uint16, sel uint8, collect bool, seed int64, shards, commits, provider uint8) {
		checkCase(t, execCase{shape, nrel, m, fo, rows, strategy, flat, workers, chunk, sel, collect, seed,
			shards, commits, provider})
	})
}
