package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/par"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
)

// This file is the in-process scatter-gather layer over a partition of
// a snapshot's driver rows (internal/shard): RunSharded executes one
// restricted Run per shard and MergeShardStats folds the per-shard
// results into counters bit-identical to unsharded execution.
//
// The merge invariant rests on two properties:
//
//   - Driver rows are partitioned: every shard runs the parent
//     snapshot under Options.DriverRows, and every phase-2 counter
//     (probes, tuples, checksum contributions — all in the parent's row
//     coordinates) is a pure function of the driver rows a worker
//     processes, independent of chunk boundaries, so summing shards is
//     the same as summing chunks.
//   - Build-side work is shared, not partitioned: the non-root
//     relations are the parent's own, so cached tables and filters are
//     one set for all shards. Phase-2 counters never count builds; the
//     SJ strategies' per-query build-side reductions, which every
//     shard's run repeats identically, carry a Build* split that the
//     merge counts exactly once.

// MergeShardStats folds per-shard Stats from the same partition into
// the totals unsharded execution would report. All phase-2 counters
// and the checksum are additive over driver rows; the replicated SJ
// build-side reductions (Stats.BuildSemiJoinProbes and the matching
// tag splits) are identical in every shard and are counted once. Cache
// counters are summed (each shard's run makes its own lookups — there
// is no unsharded counterpart to preserve) and BytesCached takes the
// largest snapshot. Coverage is 1 and
// FailedShards nil: a degraded gather sets both after merging the
// survivors.
func MergeShardStats(parts []Stats) Stats {
	var m Stats
	m.Coverage = 1
	if len(parts) == 0 {
		return m
	}
	m.PerRelationProbes = make(map[plan.NodeID]int64, len(parts[0].PerRelationProbes))
	for _, p := range parts {
		m.HashProbes += p.HashProbes
		m.FilterProbes += p.FilterProbes
		m.SemiJoinProbes += p.SemiJoinProbes - p.BuildSemiJoinProbes
		m.TagHits += p.TagHits - p.BuildTagHits
		m.TagMisses += p.TagMisses - p.BuildTagMisses
		m.OutputTuples += p.OutputTuples
		m.ExpandedTuples += p.ExpandedTuples
		m.IntermediateTuples += p.IntermediateTuples
		m.FactorizedRows += p.FactorizedRows
		m.CacheHits += p.CacheHits
		m.CacheMisses += p.CacheMisses
		if p.BytesCached > m.BytesCached {
			m.BytesCached = p.BytesCached
		}
		m.Checksum += p.Checksum
		for id, v := range p.PerRelationProbes {
			m.PerRelationProbes[id] += v
		}
	}
	m.SemiJoinProbes += parts[0].BuildSemiJoinProbes
	m.TagHits += parts[0].BuildTagHits
	m.TagMisses += parts[0].BuildTagMisses
	m.BuildSemiJoinProbes = parts[0].BuildSemiJoinProbes
	m.BuildTagHits = parts[0].BuildTagHits
	m.BuildTagMisses = parts[0].BuildTagMisses
	return m
}

// RunSharded executes the query over a partition: one Run of the
// parent snapshot per shard, concurrently, restricted to the shard's
// driver rows, with Options.Parallelism split across the shards,
// merged by MergeShardStats. opts.DriverRows is owned by this layer;
// everything else applies to every shard unchanged, a shared
// opts.Artifacts provider included — the shards request the same
// artifacts under the same keys.
//
// RunSharded is all-or-nothing: the first shard failure cancels the
// siblings and fails the call. Degraded (partial-coverage) gathering
// is the serving tier's job, which dispatches shards individually.
// The exec/shard-probe failpoint fires once per shard before its run.
func RunSharded(shards []shard.Shard, opts Options) (Stats, error) {
	if len(shards) == 0 {
		return Stats{}, fmt.Errorf("exec: RunSharded with no shards")
	}
	if opts.Parallelism < 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	per := max(opts.Parallelism/len(shards), 1)

	if collect := opts.CollectOutput; collect != nil {
		// Each shard's Run serializes the callback only among its own
		// workers; shards are separate runs, so serialize across them too.
		var cmu sync.Mutex
		opts.CollectOutput = func(rows []int32) {
			cmu.Lock()
			collect(rows)
			cmu.Unlock()
		}
	}

	base := opts.Ctx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	defer cancel()

	parts := make([]Stats, len(shards))
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	par.For(len(shards), len(shards), nil, func(_, i int) {
		// The shard body runs outside Run's own panic boundary (the
		// failpoint below can panic), so it carries the same recover
		// guard the executor puts on every unit of work.
		defer func() {
			if v := recover(); v != nil {
				fail(&PanicError{Site: "shard-probe", Value: v, Stack: debug.Stack()})
			}
		}()
		if err := faultinject.Fire(faultinject.SiteShardProbe); err != nil {
			fail(err)
			return
		}
		o := opts
		o.Parallelism = per
		o.Ctx = ctx
		o.DriverRows = shards[i].Rows
		st, err := Run(shards[i].Parent, o)
		if err != nil {
			fail(fmt.Errorf("exec: shard %d/%d: %w", shards[i].Index, len(shards), err))
			return
		}
		parts[i] = st
	})
	if firstErr != nil {
		return Stats{}, firstErr
	}
	return MergeShardStats(parts), nil
}
