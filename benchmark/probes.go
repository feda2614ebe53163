package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"m2mjoin/internal/bitvector"
	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/telemetry"
	"m2mjoin/internal/workload"
)

// The layer probes time calls into each module's public API from
// outside, on the workload's primary dataset (the one its most popular
// template queries), so a layer number reads as "this layer's cost on
// this workload's data". Every executed query is checked against the
// oracle like a load-loop operation.

const probeChunk = exec.DefaultChunkSize

// mapArtifacts is the harness-owned artifact provider: a plain map, so
// a run with a filled one makes no phase-1 build and phase 2 is timed
// alone.
type mapArtifacts struct {
	mu      sync.Mutex
	tables  map[plan.NodeID]*hashtable.Table
	filters map[plan.NodeID]*bitvector.Filter
}

func newMapArtifacts() *mapArtifacts {
	return &mapArtifacts{tables: map[plan.NodeID]*hashtable.Table{}, filters: map[plan.NodeID]*bitvector.Filter{}}
}

func (a *mapArtifacts) Table(id plan.NodeID) *hashtable.Table {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.tables[id]
}

func (a *mapArtifacts) PutTable(id plan.NodeID, t *hashtable.Table) {
	a.mu.Lock()
	a.tables[id] = t
	a.mu.Unlock()
}

func (a *mapArtifacts) Filter(id plan.NodeID) *bitvector.Filter {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.filters[id]
}

func (a *mapArtifacts) PutFilter(id plan.NodeID, f *bitvector.Filter) {
	a.mu.Lock()
	a.filters[id] = f
	a.mu.Unlock()
}

func (a *mapArtifacts) BytesCached() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var b int64
	for _, t := range a.tables {
		b += t.MemoryBytes()
	}
	for _, f := range a.filters {
		b += f.MemoryBytes()
	}
	return b
}

// prober runs the layer probes of one traced pass.
type prober struct {
	e      *env
	ds     *storage.Dataset
	oracle *template
	rec    *recorder
	ms     metricSet
	// auto is the plan chosen over all six strategies.
	auto core.PlanChoice

	attempted, failed int
	firstErr          error
}

// timed is timeMedian with one kernel span per repetition. Each
// repetition starts from a collected heap, so the garbage of the probe
// before it is not collected on this one's time.
func (p *prober) timed(name string, reps int, fn func()) time.Duration {
	d := make([]time.Duration, reps)
	for i := range d {
		runtime.GC()
		d[i] = p.rec.kernel(name, fn)
	}
	return medianDuration(d)
}

// run executes one query and checks it against the oracle.
func (p *prober) run(opts exec.Options) exec.Stats {
	st, err := exec.Run(p.ds, opts)
	p.verify(st, err, opts.FlatOutput)
	return st
}

func (p *prober) verify(st exec.Stats, err error, flat bool) {
	p.attempted++
	if err == nil && (st.OutputTuples != p.oracle.count || (flat && st.Checksum != p.oracle.checksum)) {
		err = fmt.Errorf("probe: got %d tuples checksum %#x, oracle %d tuples checksum %#x",
			st.OutputTuples, st.Checksum, p.oracle.count, p.oracle.checksum)
	}
	if err != nil {
		p.failed++
		if p.firstErr == nil {
			p.firstErr = err
		}
	}
}

// probeKeys walks keys in executor-sized chunks, enough passes to cover
// at least minProbeKeys, and returns the time per key.
func (p *prober) probeKeys(name string, keys []int64, fn func(chunk []int64)) float64 {
	passes := max(1, p.e.sc.minProbeKeys/max(len(keys), 1))
	d := p.timed(name, p.e.sc.probeReps, func() {
		for pass := 0; pass < passes; pass++ {
			for lo := 0; lo < len(keys); lo += probeChunk {
				fn(keys[lo:min(lo+probeChunk, len(keys))])
			}
		}
	})
	return nsPer(d, passes*len(keys))
}

// kernels measures hashtable.*, bitvector.*, storage.* and shard.* on
// the largest build-side relation, probed with its parent's key column
// — the keys the executor itself probes it with, so the hit ratio is
// the workload's match probability.
func (p *prober) kernels() {
	ds, ms, reps := p.ds, p.ms, p.e.sc.probeReps
	t := ds.Tree
	big := t.NonRoot()[0]
	var tableBytes int64
	for _, id := range t.NonRoot() {
		if ds.Relation(id).NumRows() > ds.Relation(big).NumRows() {
			big = id
		}
		tableBytes += hashtable.Build(ds.Relation(id), ds.KeyColumn(id), nil).MemoryBytes()
	}
	rel, key := ds.Relation(big), ds.KeyColumn(big)
	n := rel.NumRows()
	keys := []int64(ds.Relation(t.Parent(big)).Column(key))

	var tab *hashtable.Table
	build := p.timed("hashtable.Build", reps, func() { tab = hashtable.Build(rel, key, nil) })
	ms["hashtable.build_ns_per_row"] = nsPer(build, n)
	ms["hashtable.bytes_per_row"] = float64(tab.MemoryBytes()) / float64(n)
	ms["hashtable.table_mb"] = float64(tableBytes) / (1 << 20)

	var res hashtable.ProbeResult
	var probed, tagMiss int
	ms["hashtable.probe_batch_ns_per_key"] = p.probeKeys("hashtable.ProbeBatchInto", keys, func(c []int64) {
		tab.ProbeBatchInto(c, nil, &res)
		probed += res.Probed
		tagMiss += res.TagMisses
	})
	ms["hashtable.tag_miss_ratio"] = float64(tagMiss) / float64(max(probed, 1))
	counts := make([]int32, probeChunk)
	ms["hashtable.probe_counts_ns_per_key"] = p.probeKeys("hashtable.ProbeCounts", keys, func(c []int64) {
		tab.ProbeCounts(c, nil, counts[:len(c)])
	})
	found := make([]bool, probeChunk)
	ms["hashtable.probe_contains_ns_per_key"] = p.probeKeys("hashtable.ProbeContains", keys, func(c []int64) {
		tab.ProbeContains(c, nil, found[:len(c)])
	})
	chained := exec.BuildChained(rel, key, nil)
	hits := 0
	ms["hashtable.chained_probe_ns_per_key"] = p.probeKeys("exec.ChainedTable.Contains", keys, func(c []int64) {
		for _, k := range c {
			if chained.Contains(k) {
				hits++
			}
		}
	})
	live := storage.NewBitmap(len(keys))
	reduce := p.timed("hashtable.ReduceLive", reps, func() {
		live.SetAll()
		tab.ReduceLive(keys, live, 0, len(keys))
	})
	ms["hashtable.reduce_live_ns_per_row"] = nsPer(reduce, len(keys))

	filter := bitvector.FromTable(tab)
	ms["bitvector.from_table_us"] = micros(p.timed("bitvector.FromTable", reps*5, func() { filter = bitvector.FromTable(tab) }))
	ms["bitvector.bits_per_key"] = float64(filter.MemoryBytes()*8) / float64(n)
	fbuild := p.timed("bitvector.BuildFromColumn", reps, func() { bitvector.BuildFromColumn(rel, key, nil, 0) })
	ms["bitvector.build_ns_per_row"] = nsPer(fbuild, n)
	maybe := make([]bool, probeChunk)
	ms["bitvector.probe_ns_per_key"] = p.probeKeys("bitvector.ProbeContains", keys, func(c []int64) {
		filter.ProbeContains(c, nil, maybe[:len(c)])
	})
	absent, falsePos := 0, 0
	for lo := 0; lo < len(keys); lo += probeChunk {
		c := keys[lo:min(lo+probeChunk, len(keys))]
		tab.ProbeContains(c, nil, found[:len(c)])
		filter.ProbeContains(c, nil, maybe[:len(c)])
		for i := range c {
			if !found[i] {
				absent++
				if maybe[i] {
					falsePos++
				}
			}
		}
	}
	ms["bitvector.false_positive_ratio"] = float64(falsePos) / float64(max(absent, 1))

	ms["storage.fingerprint_ms"] = msec(p.timed("storage.Fingerprint", reps, func() { ds.Fingerprint() }))
	var shards []shard.Shard
	ms["shard.partition_ms"] = msec(p.timed("shard.Partition", reps, func() {
		var err error
		if shards, err = shard.Partition(ds, 4); err != nil {
			p.verify(exec.Stats{}, err, false)
		}
	}))

	// A chain of small commits on the relation, each followed by the
	// repairs the serving tier makes: the table through ApplyDelta, the
	// partition through Advance.
	const deltaRows = 64
	cur := ds
	vt := hashtable.BuildVersioned(rel, key, ds.BaseRows(big), ds.BaseLive(big), ds.Live(big), 1, nil)
	var commit, apply, advance []time.Duration
	vals := make([]int64, rel.NumCols())
	for step := 0; step < 4*reps; step++ {
		delta := cur.Begin()
		for i := 0; i < deltaRows; i++ {
			for c := range vals {
				vals[c] = -int64(1 + step*deltaRows + i)
			}
			delta.Append(rel.Name(), vals...)
			delta.Delete(rel.Name(), step*deltaRows+i)
		}
		var v storage.Version
		var err error
		commit = append(commit, p.rec.kernel("storage.Commit", func() { v, err = delta.Commit() }))
		if err != nil {
			p.verify(exec.Stats{}, err, false)
			break
		}
		cur = v.Dataset
		d := v.Deltas[0]
		spec := hashtable.DeltaSpec{
			BaseRows: cur.BaseRows(big), BaseLive: cur.BaseLive(big), Live: cur.Live(big),
			AppendedFrom: d.AppendedFrom, Deleted: d.Deleted, Compacted: d.Compacted,
		}
		apply = append(apply, p.rec.kernel("hashtable.ApplyDelta", func() {
			vt = vt.ApplyDelta(cur.Relation(big), key, spec, 1, nil)
		}))
		advance = append(advance, p.rec.kernel("shard.Advance", func() {
			if shards, err = shard.Advance(shards, cur, v); err != nil {
				p.verify(exec.Stats{}, err, false)
			}
		}))
	}
	ms["storage.commit_us"] = micros(medianDuration(commit))
	ms["hashtable.apply_delta_us"] = micros(medianDuration(apply))
	ms["shard.advance_us"] = micros(medianDuration(advance))
	ms["hashtable.rebuild_versioned_ms"] = msec(p.timed("hashtable.BuildVersioned", reps, func() {
		hashtable.BuildVersioned(cur.Relation(big), key, cur.BaseRows(big), cur.BaseLive(big), cur.Live(big), 1, nil)
	}))
	ms["hashtable.probe_delta_ns_per_key"] = p.probeKeys("hashtable.ProbeBatchInto.delta", keys, func(c []int64) {
		vt.ProbeBatchInto(c, nil, &res)
	})

	const spans = 20000
	tr := telemetry.NewTrace(time.Now)
	spanTime := p.rec.kernel("telemetry.Trace", func() {
		for i := 0; i < spans; i++ {
			if i%1000 == 0 {
				tr.Reset()
			}
			tr.End(tr.Start("probe", telemetry.NoParent))
		}
	})
	ms["telemetry.span_ns"] = nsPer(spanTime, spans)
}

// planning times the join-order searches on the measured tree and
// returns the plan chosen over all six strategies. (The planning steps
// of a real operation, workload.measure_ms and opt.choose_plan_us, are
// taken from the ad-hoc loop's spans instead.)
func (p *prober) planning() (core.PlanChoice, *workload.EdgeStatsCache) {
	ds, ms, reps := p.ds, p.ms, p.e.sc.probeReps
	cache := workload.NewEdgeStatsCache()
	tree := workload.MeasuredTreeCached(ds, cache)
	choice, err := core.ChoosePlan(core.PlanRequest{Dataset: ds, MeasureStats: true, StatsCache: cache, FlatOutput: true})
	if err != nil {
		p.verify(exec.Stats{}, err, false)
	}
	model := cost.New(tree, cost.DefaultWeights())
	ms["opt.exhaustive_us"] = micros(p.timed("opt.Optimize.exhaustive", reps*3, func() { opt.Optimize(model, cost.COM, opt.Exhaustive) }))
	ms["opt.greedy_us"] = micros(p.timed("opt.Optimize.greedy", reps*3, func() { opt.Optimize(model, cost.COM, opt.GreedySurvival) }))
	return choice, cache
}

// strategies measures exec.<S>.* for the six strategies, each under
// its own optimized plan, and the switchable paths of ROADMAP item 2.
func (p *prober) strategies(auto core.PlanChoice, cache *workload.EdgeStatsCache) {
	ds, ms, reps := p.ds, p.ms, p.e.sc.probeReps
	par := p.e.parallelism
	w := cost.DefaultWeights()
	weighted := make(map[cost.Strategy]float64)
	var comOpts exec.Options
	var comWarm *mapArtifacts
	var comWarmTime, comCold time.Duration
	var comColdAlloc uint64
	var stdOpts exec.Options
	var stdWarm *mapArtifacts
	var stdWarmTime time.Duration

	for i, s := range cost.AllStrategies {
		tag := "exec." + strategyTags[i]
		choice, err := core.ChoosePlan(core.PlanRequest{
			Dataset: ds, MeasureStats: true, StatsCache: cache, FlatOutput: true, Strategies: []cost.Strategy{s},
		})
		if err != nil {
			p.verify(exec.Stats{}, err, false)
			continue
		}
		opts := exec.Options{Strategy: s, Order: choice.Order, SemiJoins: choice.SemiJoins, FlatOutput: true, Parallelism: par}
		// Every cold run offers its builds to a fresh provider; the last
		// one's provider is then full and serves the warm runs.
		var arts *mapArtifacts
		var st exec.Stats
		var allocs []float64
		cold := p.timed(tag+".cold", reps, func() {
			arts = newMapArtifacts()
			o := opts
			o.Artifacts = arts
			allocs = append(allocs, float64(allocDuring(func() { st = p.run(o) })))
		})
		warm := cold
		sj := s == cost.SJSTD || s == cost.SJCOM
		if !sj {
			// The SJ strategies build from per-query reduced masks and
			// never consult a provider: their warm run is their cold run.
			o := opts
			o.Artifacts = arts
			warm = p.timed(tag+".warm", reps, func() { p.run(o) })
		}
		ms[tag+".cold_ms"] = msec(cold)
		ms[tag+".warm_ms"] = msec(warm)
		ms[tag+".weighted_probes"] = st.WeightedCost(w)
		ms[tag+".alloc_kb"] = median(allocs) / 1024
		weighted[s] = st.WeightedCost(w)
		switch s {
		case cost.COM:
			comOpts, comWarm, comWarmTime, comCold, comColdAlloc = opts, arts, warm, cold, uint64(median(allocs))
		case cost.STD:
			stdOpts, stdWarm, stdWarmTime = opts, arts, warm
		}
	}

	best := weighted[auto.Strategy]
	for _, v := range weighted {
		if v < best {
			best = v
		}
	}
	ms["opt.regret"] = weighted[auto.Strategy] / max(best, 1)
	driverRows := float64(ds.Relation(plan.Root).NumRows())
	ms["cost.estimate_over_actual"] = auto.Predicted.Total * driverRows / max(weighted[auto.Strategy], 1)

	ratio := func(name string, base time.Duration, opts exec.Options, arts *mapArtifacts) float64 {
		opts.Artifacts = arts
		return float64(p.timed(name, reps, func() { p.run(opts) })) / float64(max(base, 1))
	}
	o := stdOpts
	o.NoInterleave = true
	ms["exec.STD.nointerleave_ratio"] = ratio("exec.STD.nointerleave", stdWarmTime, o, stdWarm)
	o = comOpts
	o.NoInterleave = true
	ms["exec.COM.nointerleave_ratio"] = ratio("exec.COM.nointerleave", comWarmTime, o, comWarm)
	o = comOpts
	o.BreadthFirstExpand = true
	ms["exec.bfs_expand_ratio"] = ratio("exec.COM.bfs", comWarmTime, o, comWarm)

	o = comOpts
	o.Parallelism = 1
	one := ratio("exec.COM.parallel1", comWarmTime, o, comWarm)
	o.Parallelism = 2
	two := ratio("exec.COM.parallel2", comWarmTime, o, comWarm)
	ms["exec.parallel2_speedup"] = one / two

	// Factorized output: the same COM plan without the expansion phase.
	o = comOpts
	o.FlatOutput = false
	o.Artifacts = comWarm
	var fact exec.Stats
	factTime := p.timed("exec.COM.factorized", reps, func() { fact = p.run(o) })
	expanded := float64(max(p.oracle.count, 1))
	ms["factor.expand_ns_per_tuple"] = float64((comWarmTime - factTime).Nanoseconds()) / expanded
	ms["factor.factorized_rows_per_output_tuple"] = float64(fact.FactorizedRows) / expanded

	batch := make([]exec.Options, 8)
	for i := range batch {
		batch[i] = comOpts
		batch[i].Artifacts = comWarm
	}
	batchTime := p.timed("exec.RunBatch", max(1, reps/2), func() {
		stats, errs := exec.RunBatch(ds, batch)
		for i := range stats {
			p.verify(stats[i], errs[i], true)
		}
	})
	ms["exec.batch8_over_solo"] = float64(batchTime) / float64(8*max(comWarmTime, 1))

	var shardedAllocs []float64
	shardedTime := p.timed("exec.RunSharded", reps, func() {
		shardedAllocs = append(shardedAllocs, float64(allocDuring(func() {
			shards, err := shard.Partition(ds, 4)
			if err != nil {
				p.verify(exec.Stats{}, err, false)
				return
			}
			st, err := exec.RunSharded(shards, comOpts)
			p.verify(st, err, true)
		})))
	})
	ms["exec.sharded4_time_ratio"] = float64(shardedTime) / float64(max(comCold, 1))
	ms["exec.sharded4_alloc_ratio"] = median(shardedAllocs) / float64(max(comColdAlloc, 1))
}

// runProbes runs every layer probe into ms.
func (e *env) runProbes(rec *recorder, ms metricSet) *prober {
	p := &prober{e: e, ds: e.datasets[0].ds, oracle: &e.templates[0], rec: rec, ms: ms}
	p.kernels()
	var cache *workload.EdgeStatsCache
	p.auto, cache = p.planning()
	p.strategies(p.auto, cache)
	return p
}
