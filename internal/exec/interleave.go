package exec

import (
	"m2mjoin/internal/bitvector"
	"m2mjoin/internal/buf"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// This file is the interleaved probe scheduler: the default phase-2
// probe path (Options.NoInterleave restores the drain-one-relation-
// at-a-time loops for ablation). One join step's memory traffic is a
// *probe chain* — the bitvector filters guarding the step plus the
// hash-table probe itself, each a link with its own key gather and a
// selection mask chained from the previous link — and the chain is
// driven as a wavefront over ProbeBlock-lane blocks: at wavefront step
// s, link j runs its stages on block s-j, so while one link's stage-2
// verification waits on the loads its stage 1 issued, the other links'
// stage-1 loads for neighbouring blocks are already in flight.
// Directory and filter-word misses from different relations overlap in
// the memory system instead of serializing one relation at a time.
//
// Bit-identity with the sequential path is by construction, not by
// accident, and the parity is load-bearing (the differential tests pin
// it):
//
//   - A filter link probes exactly the lanes the previous link passed
//     (the chained selection mask), which are exactly the lanes the
//     sequential path's compaction would have kept — so per-filter
//     probe counts match the compact-then-probe loop.
//   - The table link is a hashtable.ProbePipeline, the very thing
//     ProbeBatchInto drives back to back; its selection mask
//     is the last filter's output, so Probed equals the sequential
//     post-compaction batch size.
//   - Where the step's own filter is the last filter link, it fuses
//     into the table link's stage 1 (the filter word is tested while
//     the block's lanes are listed, and only survivors load a
//     directory word) with the counter split preserved;
//     fusing any *earlier* filter would reorder prunes and change the
//     later filters' probe counts, so only the last link ever fuses.
//   - Link j touches block b strictly after link j-1 finished block b
//     (wavefront skew), and a pipeline's Stage2 runs in ascending
//     block order — the two scheduling constraints the hashtable and
//     mask-chaining contracts require.
//
// All link scratch (key gathers, masks, the pipeline result) lives in
// a per-worker arena reused across chunks, so the steady-state chain
// is allocation-free.

// chainLink is one relation's probe stream within a chain: either a
// bitvector filter link (all work in stage 1 — the filter probe is a
// single independent load) or the final hash-table link (the worker's
// staged ProbePipeline). keys and mask are arena buffers owned by the
// worker and reused across chunks.
type chainLink struct {
	filter *bitvector.Filter
	pipe   *hashtable.ProbePipeline // the table link's; nil for filter links
	keyCol storage.Column
	src    []int32 // rows whose keys this link probes
	shared int     // index of the earlier link whose gather this link reuses (-1: own)

	keys []int64 // owned gather buffer
	mask []bool  // owned output mask (filter links) / fused pass mask
	kv   []int64 // effective keys: own buffer, or the shared link's
	sel  []bool  // input selection mask (nil = all lanes)

	fused bool // table link with the step's own filter fused into stage 1

	probed int // filter links: probes issued
}

// stage1 gathers block b's keys (unless an earlier link owns the
// gather) and issues the link's independent loads: the whole probe for
// a filter link, the hash/tag-filter/prefetch stage for a table link.
func (l *chainLink) stage1(b, n int) {
	lo := b * hashtable.ProbeBlock
	hi := min(lo+hashtable.ProbeBlock, n)
	if l.shared < 0 {
		keyCol, src, keys := l.keyCol, l.src, l.kv
		for i := lo; i < hi; i++ {
			keys[i] = keyCol[src[i]]
		}
	}
	if l.pipe != nil {
		l.pipe.Stage1(b)
		return
	}
	var sel []bool
	if l.sel != nil {
		sel = l.sel[lo:hi]
	}
	l.probed += l.filter.ProbeContains(l.kv[lo:hi], sel, l.mask[lo:hi])
}

// stage2 verifies block b for a table link; filter links finished in
// stage 1.
func (l *chainLink) stage2(b int) {
	if l.pipe != nil {
		l.pipe.Stage2(b)
	}
}

// ensureLinks sizes the worker's chain arena to m links and returns
// it. Lane buffers are grown lazily by the prepare functions — only
// the buffers a link actually reads (an unfused table link needs no
// mask, a shared-gather link no keys) — so the arena only allocates
// until it reaches the query's widest chain; after that the chunk
// loop reuses it allocation-free.
func (w *worker) ensureLinks(m int) []chainLink {
	for len(w.links) < m {
		w.links = append(w.links, chainLink{})
	}
	return w.links[:m]
}

// runChain drives m links over ceil(n/ProbeBlock) blocks as a skewed
// wavefront: step s runs link j's stages on block s-j, stage-1 wave
// before stage-2 wave. Link j reaches block b one step after link j-1
// finished it (its selection-mask input), and each link's blocks are
// visited in ascending order (the pipeline's Stage2 contract); within
// one step the links touch distinct blocks, so the two waves have no
// intra-step dependencies — just overlapping loads.
func runChain(links []chainLink, n int) {
	m := len(links)
	nb := (n + hashtable.ProbeBlock - 1) / hashtable.ProbeBlock
	for step := 0; step < nb+m-1; step++ {
		jlo := 0
		if step >= nb {
			jlo = step - nb + 1
		}
		jhi := min(step, m-1)
		for j := jlo; j <= jhi; j++ {
			links[j].stage1(step-j, n)
		}
		for j := jlo; j <= jhi; j++ {
			links[j].stage2(step - j)
		}
	}
}

// prepareChain builds the chain for one join step into the worker
// arena: the filter links of at's children (ascending, as the
// sequential path applies them), then the table link for next. atRows
// and parentRows are the chunk's materialized rows of at and of next's
// parent — the lanes — and live is the first link's selection mask (nil
// = all lanes). When next's own filter is the last filter link it fuses
// into the table link's stage 1; when next's key gather duplicates an
// earlier filter link's (same column, same source rows) the table link
// reuses that gather. Returns the prepared links; the table link's
// pipeline is already Begun against w.probe.
func (w *worker) prepareChain(at, next plan.NodeID, atRows, parentRows []int32, live []bool) []chainLink {
	r := w.r
	n := len(atRows)
	parent := r.ds.Tree.Parent(next)
	var kids []plan.NodeID
	fused := false
	if r.filters != nil {
		kids = r.children[at]
		if parent == at && len(kids) > 0 && kids[len(kids)-1] == next {
			fused = true
			kids = kids[:len(kids)-1]
		}
	}
	m := len(kids)
	links := w.ensureLinks(m + 1)

	atRel := r.ds.Relation(at)
	prevMask := live
	for i, c := range kids {
		l := &links[i]
		l.filter = r.filters[c]
		l.pipe = nil
		l.keyCol = atRel.Column(r.ds.KeyColumn(c))
		l.src = atRows
		l.shared = -1
		l.keys = buf.Grow(l.keys, n)
		l.mask = buf.Grow(l.mask, n)
		l.kv = l.keys
		l.sel = prevMask
		l.fused = false
		l.probed = 0
		prevMask = l.mask
	}

	tl := &links[m]
	tl.filter = nil
	tl.pipe = &w.pipe
	tl.keyCol = r.ds.Relation(parent).Column(r.ds.KeyColumn(next))
	tl.src = parentRows
	tl.shared = -1
	tl.sel = prevMask
	tl.probed = 0
	for j := 0; j < m; j++ {
		if sameCol(links[j].keyCol, tl.keyCol) && sameRows(links[j].src, tl.src) {
			tl.shared = j
			break
		}
	}
	if tl.shared >= 0 {
		tl.kv = links[tl.shared].kv
	} else {
		tl.keys = buf.Grow(tl.keys, n)
		tl.kv = tl.keys
	}
	tl.fused = fused
	if fused {
		f := r.filters[next]
		tl.mask = buf.Grow(tl.mask, n)
		tl.pipe.BeginFused(r.tables[next], tl.kv, tl.sel, &w.probe, f.Words(), f.WordShift(), tl.mask)
	} else {
		tl.pipe.Begin(r.tables[next], tl.kv, tl.sel, &w.probe)
	}
	return links
}

// sameCol / sameRows detect an identical gather source by slice
// identity — the only way two links alias in practice (both read the
// same column at the same materialized row set).
func sameCol(a, b storage.Column) bool {
	return len(a) == len(b) && len(a) > 0 && &a[0] == &b[0]
}

func sameRows(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// finishChain finalizes the table link's pipeline and folds the
// chain's counters into the worker: per-filter probe counts (the fused
// filter's via the pipeline's split), then the table probe counters
// exactly as the sequential join accounts them.
func (w *worker) finishChain(links []chainLink, next plan.NodeID) *hashtable.ProbeResult {
	m := len(links) - 1
	tl := &links[m]
	tl.pipe.End()
	for j := 0; j < m; j++ {
		w.filterProbes += int64(links[j].probed)
	}
	if tl.fused {
		w.filterProbes += int64(tl.pipe.FilterProbed())
	}
	res := &w.probe
	w.hashProbes += int64(res.Probed)
	w.tagHits += int64(res.TagHits)
	w.tagMisses += int64(res.TagMisses)
	w.perRel[next] += int64(res.Probed)
	return res
}

// runSTDChunkInterleaved is runSTDChunk with each join step's filters
// and table probe driven as one interleaved chain. The sequential
// path's filter pass compacts the flat intermediate between filters;
// here pruned lanes stay in place carrying a false selection bit, and
// the join expansion drops them for free (their match count is zero) —
// the materialized columns come out identical, in the same order.
func (w *worker) runSTDChunkInterleaved(driverRows []int32) {
	r := w.r
	cur, spare := w.colsA, w.colsB
	cur[0] = append(cur[0][:0], driverRows...)
	width := 1
	// at is the relation whose children's filters the sequential path
	// would apply before the next join: the root before the first join,
	// then each newly materialized relation. (The last relation in a
	// valid order is a leaf, so no trailing filter pass is ever owed.)
	at := plan.Root
	for _, next := range r.opts.Order {
		n := len(cur[0])
		links := w.prepareChain(at, next, cur[r.layoutPos[at]], cur[r.layoutPos[r.ds.Tree.Parent(next)]], nil)
		runChain(links, n)
		res := w.finishChain(links, next)

		for c := 0; c < width; c++ {
			col := spare[c][:0]
			curCol := cur[c]
			for i := 0; i < n; i++ {
				v := curCol[i]
				for k := res.Offsets[i]; k < res.Offsets[i+1]; k++ {
					col = append(col, v)
				}
			}
			spare[c] = col
		}
		spare[width] = append(spare[width][:0], res.Rows...)
		w.intermediateTuples += int64(len(res.Rows))

		cur, spare = spare, cur
		width++
		at = next
		if len(cur[0]) == 0 {
			break
		}
	}
	w.colsA, w.colsB = cur, spare
	if len(cur[0]) == 0 || width != r.ds.Tree.Len() {
		return
	}
	tuple := w.rowsBuf[:width]
	for i := range cur[0] {
		for c := 0; c < width; c++ {
			tuple[c] = cur[c][i]
		}
		if w.emitTuple(tuple) {
			w.outputTuples++
		}
	}
}

// comRootChain is the factorized pipeline's interleaved pre-pass: the
// root's child filters plus the first join, as one chain over the
// driver chunk. It is the only COM step that can batch — the chunk
// holds a single node here, so a liveness kill cannot cascade, which
// is what lets the filter kills be deferred behind a chained mask.
// Later COM filters run scalar (applyFiltersCOM): their kills
// propagate through the factor chunk and spare subsequent probes, an
// ordering batching would change. Kills are applied before AddJoin so
// the chunk evolves through exactly the sequential states.
func (w *worker) comRootChain(first plan.NodeID) {
	chunk := w.chunk
	pNode := chunk.Node(plan.Root)

	links := w.prepareChain(plan.Root, first, pNode.Rows, pNode.Rows, pNode.Live)
	runChain(links, len(pNode.Rows))

	// Apply the deferred filter kills: lanes live on entry whose
	// chained mask went false. Each such lane failed exactly one
	// filter in the sequential order too, so kill counts match.
	final := finalMask(links)
	if final != nil {
		for i := range pNode.Live {
			if pNode.Live[i] && !final[i] {
				chunk.Kill(pNode, i)
			}
		}
	}
	res := w.finishChain(links, first)
	w.nodes[first] = chunk.AddJoin(plan.Root, first, res.Counts, res.Rows)
}

// finalMask returns the lane mask after every filter in the chain, or
// nil when the chain carries no filters: the fused table link's pass
// mask, else the last filter link's output.
func finalMask(links []chainLink) []bool {
	m := len(links) - 1
	if links[m].fused {
		return links[m].mask
	}
	if m > 0 {
		return links[m-1].mask
	}
	return nil
}
