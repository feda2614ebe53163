package exec

import (
	"fmt"
	"maps"
	"slices"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/par"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// This file implements the semi-join full-reduction pass of the SJ
// strategies (Sections 2.2, 4.5): a single bottom-up sweep in which
// every parent is semi-joined with its already-reduced children,
// leaves' parents first, ending with the driver. The hash tables built
// for the semi-joins are the same tables the phase-2 joins probe, so
// the pass adds no extra build cost — the paper's "more efficient
// variation" of the Yannakakis algorithm.
//
// The pass is a full reducer: which rows survive depends only on the
// snapshot and the query, never on who asks. So it always runs over
// the whole snapshot — the build side (reduceBuildSide: the table of
// every non-root relation) and then the whole driver (reduceRoot) —
// and a run restricted to DriverRows (a shard) applies its restriction
// only afterwards, as every strategy does. That makes phase 1 one
// value per snapshot and query: ReduceBuildSide computes it once, and
// any number of runs over that snapshot, whole-driver or shard, adopt
// it (Options.BuildSide) instead of reducing.
//
// Liveness is a word-packed storage.Bitmap. A run owns exactly one
// scratch bitmap, reused for every parent (a parent's mask is only
// needed while its own reductions and hash-table build run), so mask
// memory does not scale with the relation count; the root's mask is
// the last one produced and is handed off as the driver mask without
// copying. A parent's reduction splits its mask into word-aligned spans
// that every child reduces in turn (semiJoinReduce); the spans and the
// hash-table builds (hashing fanned out over morsels) fan out over
// Options.Parallelism workers with bit-identical results.

// BuildSide is the whole SJ phase 1 of one query over one snapshot:
// the table of every non-root relation, the fully reduced driver mask
// and the counters of the reductions that produced them. ReduceBuildSide
// makes one, complete; it is read-only afterwards and safe to share
// among concurrent runs. A Run given it as Options.BuildSide adopts its
// tables, driver mask and phase-1 counters and reduces nothing, so its
// Stats are exactly those of a run that reduced its own — a shard's
// too, since DriverRows restricts the driver only after phase 1.
type BuildSide struct {
	ds        *storage.Dataset
	sels      []Selection
	semiJoins map[plan.NodeID][]plan.NodeID
	tables    []*hashtable.Table
	driver    *storage.Bitmap // the reduced driver mask; nil: every row
	stats     Stats
}

// ReduceBuildSide runs the whole phase 1 of the SJ query that opts
// describe over ds once, for runs that share it: repeated whole-driver
// runs, or the runs of ds's shards, which differ only in
// Options.DriverRows (ignored here). It runs with opts' parallelism,
// context, provider and trace — its semi-join spans, the root's
// included, nest under one build-side span — and fails as Run's build
// phase would, returning no BuildSide.
func ReduceBuildSide(ds *storage.Dataset, opts Options) (*BuildSide, error) {
	if opts.Strategy.Reduction() != cost.SemiJoin {
		return nil, fmt.Errorf("exec: %v reduces no build side", opts.Strategy)
	}
	opts.DriverRows, opts.BuildSide = nil, nil
	r, err := prepare(ds, opts)
	if err != nil {
		return nil, err
	}
	r.phase1Span = r.opts.Trace.Start("build-side", r.opts.TraceParent)
	r.guard("phase1", r.semiJoinPass)
	r.opts.Trace.End(r.phase1Span)
	if err := r.phase1Err(); err != nil {
		return nil, err
	}
	st := r.stats
	st.CacheHits, st.CacheMisses = r.cacheHits.Load(), r.cacheMisses.Load()
	st.BytesCached = 8 * int64((ds.Relation(plan.Root).NumRows()+63)/64) // the driver mask's words
	for _, t := range r.tables {
		if t != nil {
			st.BytesCached += t.MemoryBytes()
		}
	}
	return &BuildSide{ds: ds, sels: opts.Selections, semiJoins: opts.SemiJoins,
		tables: r.tables, driver: r.driverLive, stats: st}, nil
}

// Stats returns the build side's own counters: the phase-1 counters —
// SemiJoinProbes and the tag counts it makes up, all of them in the
// Build* split as well — the provider lookups of its leaves, and in
// BytesCached its footprint, the MemoryBytes of every table it holds
// plus the words of its driver mask. A run that adopts the build side
// copies the phase-1 counters only.
func (b *BuildSide) Stats() Stats { return b.stats }

// fits reports why b cannot stand in for the build side of the run
// opts describe over ds, or nil when it can.
func (b *BuildSide) fits(ds *storage.Dataset, opts Options) error {
	switch {
	case opts.Strategy.Reduction() != cost.SemiJoin:
		return fmt.Errorf("exec: %v takes no build side", opts.Strategy)
	case b.ds != ds:
		return fmt.Errorf("exec: build side reduced over another snapshot")
	case !slices.Equal(b.sels, opts.Selections) || !maps.EqualFunc(b.semiJoins, opts.SemiJoins, slices.Equal[[]plan.NodeID]):
		return fmt.Errorf("exec: build side reduced under other selections or semi-join orders")
	}
	return nil
}

// semiJoinPass leaves behind r.tables (hash tables over the reduced
// relations), r.driverLive (the fully reduced driver mask) and the
// phase-1 counters: adopted from Options.BuildSide, or reduced here —
// the build side, then the whole driver.
func (r *run) semiJoinPass() {
	b := r.opts.BuildSide
	if b == nil {
		r.reduceBuildSide()
		r.reduceRoot()
		return
	}
	r.tables, r.driverLive = b.tables, b.driver
	r.stats.SemiJoinProbes, r.stats.TagHits, r.stats.TagMisses = b.stats.SemiJoinProbes, b.stats.TagHits, b.stats.TagMisses
	r.stats.BuildTagHits, r.stats.BuildTagMisses = b.stats.BuildTagHits, b.stats.BuildTagMisses
}

// reduceBuildSide gives every non-root relation its table, bottom-up.
func (r *run) reduceBuildSide() {
	t := r.ds.Tree
	r.tables = make([]*hashtable.Table, t.Len())
	for _, p := range t.BottomUp() {
		if p == plan.Root || r.cancelled() {
			return // BottomUp visits the root last; reduceRoot reduces it
		}
		// One trace span per relation covers its sibling reductions and
		// the (reduced) hash-table build together — the unit of phase-1
		// work for SJ strategies.
		sp := r.opts.Trace.Start("semijoin", r.phase1Span)
		r.opts.Trace.Annotate(sp, "rel", int64(p))
		// The hash table used both by later semi-joins from p's parent
		// and by the phase-2 join. A childless relation is never reduced,
		// so its table is the shared base-mask one — provider-served when
		// there is a provider; a reduced relation's is private to this
		// query and built here, reading the mask before scratch is reused
		// for the next parent.
		var tbl *hashtable.Table
		if children := r.semiJoinOrder(p); len(children) == 0 {
			tbl = r.baseTable(p, r.opts.Parallelism, sp)
		} else {
			tbl = hashtable.BuildParallelStop(r.ds.Relation(p), r.ds.KeyColumn(p),
				r.reduceMask(p, children), r.opts.Parallelism, r.buildStop)
		}
		if tbl == nil {
			return // build abandoned by cancellation
		}
		r.tables[p] = tbl
		r.opts.Trace.End(sp)
	}
}

// reduceRoot reduces the whole driver — its base mask, which
// DriverRows never reaches — by its children's tables.
func (r *run) reduceRoot() {
	if r.cancelled() {
		return
	}
	sp := r.opts.Trace.Start("semijoin", r.phase1Span)
	r.opts.Trace.Annotate(sp, "rel", int64(plan.Root))
	if children := r.semiJoinOrder(plan.Root); len(children) > 0 {
		// The root is the last parent reduced, so the scratch mask is
		// never reset again and can be adopted as the driver mask.
		r.driverLive = r.reduceMask(plan.Root, children)
	}
	r.opts.Trace.End(sp)
}

// reduceMask loads p's pushed-down base mask, if any, into the run's
// scratch bitmap, reduces it by the children's tables and returns it.
func (r *run) reduceMask(p plan.NodeID, children []plan.NodeID) *storage.Bitmap {
	if r.scratch == nil {
		r.scratch = storage.NewEmptyBitmap(0)
	}
	rel := r.ds.Relation(p)
	if mask := maskAt(r.baseMasks, p); mask != nil {
		r.scratch.CopyFrom(mask)
	} else {
		r.scratch.Reset(rel.NumRows())
	}
	r.semiJoinReduce(children, rel, r.scratch)
	return r.scratch
}

// minParallelReduceRows gates the parallel reduction: smaller masks
// are reduced on the calling goroutine.
const minParallelReduceRows = 4 * 1024

// reduceSpanRows is the unit of reduction work: a word-aligned run of
// parent rows long enough to fill a few kernel blocks per ReduceLive
// call, short enough that the span's mask words are still in L1 when
// the next child arrives.
const reduceSpanRows = 16 * 64

// semiJoinReduce clears the bit of every set row of mask whose key has
// no match in one of the children's tables, probing only set rows
// (skip-by-word iteration). par.For hands out word-aligned spans of
// reduceSpanRows rows — on the calling goroutine alone below
// minParallelReduceRows — and each span fires the reduce-chunk
// failpoint once, then is reduced by every child in turn, in the given
// semi-join order, so child j probes exactly the bits children 0..j-1
// left set: the probe set of a child-after-child sweep. Spans own
// disjoint mask words, so the reduction is race-free, and the probe
// stats are kept per worker slot and summed, so the mask and every
// counter are identical at any worker count. A span skipped after
// cancellation leaves its words unreduced, which is fine: the run
// aborts before the mask is consumed.
func (r *run) semiJoinReduce(children []plan.NodeID, rel *storage.Relation, mask *storage.Bitmap) {
	keyCols := make([]storage.Column, len(children))
	for j, c := range children {
		keyCols[j] = rel.Column(r.ds.KeyColumn(c))
	}
	n := mask.Len()
	p := r.opts.Parallelism
	if n < minParallelReduceRows {
		p = 1
	}
	// An empty mask is one empty span, so the failpoint still fires.
	nSpans := max((n+reduceSpanRows-1)/reduceSpanRows, 1)
	stats := make([]hashtable.ProbeStats, p)
	par.For(p, nSpans, r.cancelled, func(slot, i int) {
		r.guard("sj-reduce", func() {
			if err := faultinject.Fire(faultinject.SiteReduceChunk); err != nil {
				r.fail(err)
				return
			}
			lo := i * reduceSpanRows
			hi := min(lo+reduceSpanRows, n)
			for j, c := range children {
				stats[slot].Add(r.tables[c].ReduceLive(keyCols[j], mask, lo, hi))
			}
		})
	})
	var sum hashtable.ProbeStats
	for _, st := range stats {
		sum.Add(st)
	}
	r.addSemiJoinStats(sum)
}

// addSemiJoinStats folds one reduction's probe stats into the run
// totals: semi-join probes, plus their tag-filter split (the semi-join
// probe is a hash-table probe, so it participates in TagHits/TagMisses
// exactly like the phase-2 joins), which is also the build phase's
// Build* split that the scatter-gather merge counts once.
func (r *run) addSemiJoinStats(st hashtable.ProbeStats) {
	r.stats.SemiJoinProbes += int64(st.Probed)
	r.stats.TagHits += int64(st.TagHits)
	r.stats.TagMisses += int64(st.TagMisses)
	r.stats.BuildTagHits += int64(st.TagHits)
	r.stats.BuildTagMisses += int64(st.TagMisses)
}

// semiJoinOrder returns the order in which p's children are probed in
// phase 1: the caller-provided order when given (opt.Optimize sorts by
// increasing adjusted match probability), ascending NodeID otherwise.
func (r *run) semiJoinOrder(p plan.NodeID) []plan.NodeID {
	if r.opts.SemiJoins != nil {
		if o, ok := r.opts.SemiJoins[p]; ok {
			return o
		}
	}
	return append([]plan.NodeID(nil), r.ds.Tree.Children(p)...)
}
