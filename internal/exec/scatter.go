package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"m2mjoin/internal/cost"
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
//   - Phase 1 is shared, not partitioned: the non-root relations are
//     the parent's own, so cached tables and filters are one set for
//     all shards, and phase-2 counters never count builds. An SJ
//     strategy's reduction always covers the whole snapshot, the
//     driver included (DriverRows applies only after it), so it is the
//     same for every shard: ReduceBuildSide computes it once, and every
//     shard — of the serving tier's scatter or of RunSharded — adopts
//     it. Each shard's Stats carry the whole SemiJoinProbes and the
//     Build* tag split, which the merge counts exactly once.

// MergeShardStats folds per-shard Stats from the same partition into
// the totals unsharded execution would report. All phase-2 counters
// and the checksum are additive over driver rows; phase 1 — an SJ
// strategy's SemiJoinProbes and its tag split (Stats.BuildTagHits /
// BuildTagMisses), which every shard carries whether it reduced or
// adopted them — is taken from parts[0], once, and Phase1Adopted holds
// only if every part adopted it: where any shard ran phase 1, the merge
// executed it, once, as it counts it. Cache counters are
// summed — each shard's run counts its own lookups, and shards sharing
// a build side made none for it, so their caller adds BuildSide.Stats'
// once — and BytesCached takes the largest snapshot. Coverage is 1 and
// FailedShards nil: a degraded gather sets both after merging the
// survivors.
func MergeShardStats(parts []Stats) Stats {
	var m Stats
	m.Coverage = 1
	if len(parts) == 0 {
		return m
	}
	m.PerRelationProbes = make(map[plan.NodeID]int64, len(parts[0].PerRelationProbes))
	m.Phase1Adopted = true
	for _, p := range parts {
		m.Phase1Adopted = m.Phase1Adopted && p.Phase1Adopted
		m.HashProbes += p.HashProbes
		m.FilterProbes += p.FilterProbes
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
	m.SemiJoinProbes = parts[0].SemiJoinProbes
	m.BuildTagHits, m.BuildTagMisses = parts[0].BuildTagHits, parts[0].BuildTagMisses
	m.TagHits += m.BuildTagHits
	m.TagMisses += m.BuildTagMisses
	return m
}

// RunSharded executes the query over a partition: one Run of the
// parent snapshot per shard, concurrently, restricted to the shard's
// driver rows, with Options.Parallelism split across the shards,
// merged by MergeShardStats. opts.DriverRows is owned by this layer;
// everything else applies to every shard unchanged, a shared
// opts.Artifacts provider included — the shards request the same
// artifacts under the same keys. An SJ query without opts.BuildSide
// reduces its build side once, at the full parallelism, before the
// fan-out; every shard adopts it, and the merged Stats add its cache
// counters once and report phase 1 executed.
//
// RunSharded is all-or-nothing: the first shard failure cancels the
// siblings and fails the call. Degraded (partial-coverage) gathering
// is the serving tier's job, which dispatches shards individually.
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

	var reduced *BuildSide
	if opts.Strategy.Reduction() == cost.SemiJoin && opts.BuildSide == nil {
		o := opts
		o.Ctx = ctx
		bs, err := ReduceBuildSide(shards[0].Parent, o)
		if err != nil {
			return Stats{}, fmt.Errorf("exec: sharded build side: %w", err)
		}
		reduced, opts.BuildSide = bs, bs
	}

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
	m := MergeShardStats(parts)
	if reduced != nil {
		m.CacheHits += reduced.Stats().CacheHits
		m.CacheMisses += reduced.Stats().CacheMisses
		m.Phase1Adopted = false
	}
	return m, nil
}
