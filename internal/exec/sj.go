package exec

import (
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
// Liveness is a word-packed storage.Bitmap. The pass owns exactly one
// scratch bitmap, reused for every parent (a parent's mask is only
// needed while its own reductions and hash-table build run), so mask
// memory no longer scales with the relation count; the root's mask is
// the last one produced and is handed off as the driver mask without
// copying. Both the reduction probes (word-aligned chunks of the key
// column) and the hash-table builds (two-pass morsel scheme) fan out
// over Options.Parallelism workers with bit-identical results.

// semiJoinPass reduces all relations bottom-up and leaves behind:
// r.tables (hash tables over the reduced relations) and r.driverLive
// (the fully reduced driver mask).
func (r *run) semiJoinPass() {
	t := r.ds.Tree
	r.tables = make([]*hashtable.Table, t.Len())

	var scratch *storage.Bitmap
	for _, p := range t.BottomUp() {
		if r.cancelled() {
			return
		}
		// One span per parent covers its sibling reductions and the
		// (reduced) hash-table build together — the unit of phase-1
		// work for SJ strategies.
		sp := r.opts.Trace.Start("semijoin", r.phase1Span)
		r.opts.Trace.Annotate(sp, "rel", int64(p))
		children := r.semiJoinOrder(p)
		rel := r.ds.Relation(p)
		// Start from the pushed-down selection mask, if any.
		mask := maskAt(r.baseMasks, p)
		if len(children) > 0 {
			if scratch == nil {
				scratch = storage.NewEmptyBitmap(0)
			}
			if mask != nil {
				scratch.CopyFrom(mask)
			} else {
				scratch.Reset(rel.NumRows())
			}
			mask = scratch
			// Reductions of non-root parents never read the driver:
			// they are pure build-side work that every shard's run of
			// a partitioned query repeats identically, and their
			// counters go into the Build* split so the scatter-gather
			// merge can count them once (see Stats.BuildSemiJoinProbes).
			if len(children) > 1 && !r.opts.NoInterleave &&
				(r.opts.Parallelism <= 1 || mask.Len() < minParallelReduceRows) {
				// Sibling reductions of one parent interleave as a
				// span-skewed wavefront (semiJoinReduceMulti) whenever
				// each would otherwise run sequentially on this
				// goroutine; the chunked parallel reduction keeps the
				// one-child-at-a-time sweep.
				r.semiJoinReduceMulti(children, rel, mask, p != plan.Root)
			} else {
				for _, c := range children {
					if r.cancelled() {
						return
					}
					keyCol := rel.Column(r.ds.KeyColumn(c))
					r.semiJoinReduce(r.tables[c], keyCol, mask, p != plan.Root)
				}
			}
		}
		if p != plan.Root {
			// The hash table used both by later semi-joins from p's
			// parent and by the phase-2 join. A childless relation is
			// never reduced, so its table is the shared base-mask one —
			// provider-served when there is a provider; a reduced
			// relation's is private to this query and built here, reading
			// the mask before scratch is reused for the next parent.
			var tbl *hashtable.Table
			if len(children) == 0 {
				tbl = r.baseTable(p, r.opts.Parallelism, sp)
			} else {
				tbl = hashtable.BuildParallelStop(rel, r.ds.KeyColumn(p), mask, r.opts.Parallelism, r.buildStop)
			}
			if tbl == nil {
				return // build abandoned by cancellation
			}
			r.tables[p] = tbl
		} else {
			// BottomUp visits the root last, so the scratch mask is
			// never reset again and can be adopted as the driver mask.
			r.driverLive = mask
		}
		r.opts.Trace.End(sp)
	}
}

// minParallelReduceRows gates the chunked parallel reduction: tiny
// masks are reduced on the calling goroutine.
const minParallelReduceRows = 4 * 1024

// semiJoinReduce clears mask bits for rows whose key has no match in
// table, probing only set rows (skip-by-word iteration). The mask splits
// into one word-aligned chunk per worker — a single chunk for a
// sequential run or a small mask — and each chunk fires the
// reduce-chunk failpoint once. Chunks own disjoint mask words, so the
// reduction is race-free, and their stats are summed in chunk order, so
// the mask and every counter are identical at any worker count. A chunk
// skipped after cancellation leaves its words unreduced, which is fine:
// the run aborts before the mask is consumed.
func (r *run) semiJoinReduce(table *hashtable.Table, keyCol storage.Column, mask *storage.Bitmap, buildSide bool) {
	n := mask.Len()
	p := r.opts.Parallelism
	if n < minParallelReduceRows {
		p = 1
	}
	nWords := (n + 63) / 64
	span := max((nWords+p-1)/p, 1) * 64
	stats := make([]hashtable.ProbeStats, max((n+span-1)/span, 1))
	par.For(p, len(stats), r.cancelled, func(_, i int) {
		r.guard("sj-reduce", func() {
			if err := faultinject.Fire(faultinject.SiteReduceChunk); err != nil {
				r.fail(err)
				return
			}
			lo := i * span
			stats[i] = table.ReduceLive(keyCol, mask, lo, min(lo+span, n))
		})
	})
	var sum hashtable.ProbeStats
	for _, st := range stats {
		sum.Add(st)
	}
	r.addSemiJoinStats(sum, buildSide)
}

// reduceSpanRows is the granularity of the sibling-reduction wavefront:
// a word-aligned run of parent rows long enough to fill a few kernel
// blocks per ReduceLive call, short enough that the span's mask words
// are still in L1 when the next child arrives.
const reduceSpanRows = 16 * 64

// semiJoinReduceMulti reduces one parent's mask against all of its
// children's tables as a skewed wavefront over word-aligned row spans:
// at step s, child j reduces span s-j (hashtable.ReduceLive), so child j
// only ever probes the bits children 0..j-1 left set in that span — the
// exact bits the sequential child-after-child sweep would probe — while
// the span's mask words stay cached from one child to the next.
// Per-child stats accumulate separately and are folded in child order,
// and each child fires the reduce-chunk failpoint once before its first
// span, matching the sequential path's fire sequence; a failure or
// cancellation abandons the wavefront exactly as it abandons the
// sequential sweep (the run discards the partial mask).
func (r *run) semiJoinReduceMulti(children []plan.NodeID, rel *storage.Relation, mask *storage.Bitmap, buildSide bool) {
	m := len(children)
	keyCols := make([]storage.Column, m)
	for j, c := range children {
		keyCols[j] = rel.Column(r.ds.KeyColumn(c))
	}
	stats := make([]hashtable.ProbeStats, m)
	n := mask.Len()
	// An empty mask is one empty span, so every child still fires once.
	nSpans := max((n+reduceSpanRows-1)/reduceSpanRows, 1)
	for step := 0; step < nSpans+m-1; step++ {
		if r.cancelled() {
			return
		}
		jlo := max(0, step-nSpans+1)
		jhi := min(step, m-1)
		for j := jlo; j <= jhi; j++ {
			lo := (step - j) * reduceSpanRows
			if lo == 0 {
				if err := faultinject.Fire(faultinject.SiteReduceChunk); err != nil {
					r.fail(err)
					return
				}
			}
			stats[j].Add(r.tables[children[j]].ReduceLive(keyCols[j], mask, lo, min(lo+reduceSpanRows, n)))
		}
	}
	for _, st := range stats {
		r.addSemiJoinStats(st, buildSide)
	}
}

// addSemiJoinStats folds one reduction's probe stats into the run
// totals: semi-join probes, plus their tag-filter split (the semi-join
// probe is a hash-table probe, so it participates in TagHits/TagMisses
// exactly like the phase-2 joins). buildSide reductions — every parent
// except the root — additionally accumulate into the Build* split that
// the scatter-gather merge de-duplicates across shards.
func (r *run) addSemiJoinStats(st hashtable.ProbeStats, buildSide bool) {
	r.stats.SemiJoinProbes += int64(st.Probed)
	r.stats.TagHits += int64(st.TagHits)
	r.stats.TagMisses += int64(st.TagMisses)
	if buildSide {
		r.stats.BuildSemiJoinProbes += int64(st.Probed)
		r.stats.BuildTagHits += int64(st.TagHits)
		r.stats.BuildTagMisses += int64(st.TagMisses)
	}
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
