package exec

import (
	"m2mjoin/internal/factor"
	"m2mjoin/internal/plan"
)

// This file implements the COM pipeline (and its BVP/SJ variants):
// intermediate results stay factorized, so a join on an attribute of
// relation X probes once per live X row — never once per expanded
// intermediate tuple. Liveness kills propagate through the factor
// chunk in both directions, making probes on ancestor attributes
// "survival probes" exactly as the cost model assumes.
//
// Each worker reuses one factor.Chunk across all its driver chunks
// (factor.Chunk.Reset recycles every node and buffer), and probes go
// through the worker's reused key/probe scratch, so steady-state
// execution allocates nothing per chunk.

// runCOMChunk executes the factorized pipeline for one driver chunk.
func (w *worker) runCOMChunk(driverRows []int32) {
	r := w.r
	useBVP := r.filters != nil
	chunk := w.chunk
	chunk.Reset(driverRows)
	w.nodes[plan.Root] = chunk.Driver()
	rest := r.opts.Order
	if len(rest) > 0 {
		// Chained pre-pass: the root's child filters and the first join
		// (a valid order joins a root child first) share one probe chain
		// (interleave.go) — the only COM step where kills cannot
		// cascade, so the filter pass can run behind a chained mask. The
		// remaining joins keep the scalar filter loop whose propagated
		// kills the cost model charges for.
		first := rest[0]
		rest = rest[1:]
		w.comRootChain(first)
		if useBVP {
			w.applyFiltersCOM(chunk, first)
		}
		if chunk.Driver().LiveCount == 0 {
			rest = nil
		}
	}
	for _, next := range rest {
		w.joinCOM(chunk, next)
		if useBVP {
			w.applyFiltersCOM(chunk, next)
		}
		if chunk.Driver().LiveCount == 0 {
			break
		}
	}
	if chunk.Driver().LiveCount == 0 || len(chunk.Order()) != r.ds.Tree.Len() {
		return
	}
	switch {
	case r.opts.FlatOutput:
		w.emitPassed = 0
		expanded := chunk.Expand(w.emitFn)
		w.outputTuples += w.emitPassed
		w.expandedTuples += expanded
	case r.residuals != nil:
		// Factorized output with residual predicates: the
		// representation cannot express the cyclic constraint, so
		// counting requires enumerating (without materializing).
		w.emitPassed = 0
		chunk.Expand(w.residualCountFn)
		w.outputTuples += w.emitPassed
		w.factorizedRows += int64(chunk.FactorizedSize())
	default:
		w.outputTuples += chunk.CountOutput()
		w.factorizedRows += int64(chunk.FactorizedSize())
	}
}

// joinCOM probes the live rows of next's parent node into next's hash
// table and appends the resulting factor node.
func (w *worker) joinCOM(chunk *factor.Chunk, next plan.NodeID) {
	r := w.r
	parentID := r.ds.Tree.Parent(next)
	pNode := chunk.Node(parentID)
	keyCol := r.ds.Relation(parentID).Column(r.ds.KeyColumn(next))
	table := r.tables[next]

	keys := w.gatherKeys(keyCol, pNode.Rows)
	table.ProbeBatchInto(keys, pNode.Live, &w.probe)
	w.hashProbes += int64(w.probe.Probed)
	w.tagHits += int64(w.probe.TagHits)
	w.tagMisses += int64(w.probe.TagMisses)
	w.perRel[next] += int64(w.probe.Probed)
	w.nodes[next] = chunk.AddJoin(parentID, next, w.probe.Counts, w.probe.Rows)
}

// applyFiltersCOM applies the bitvectors of at's children to the live
// rows of at's factor node, killing misses (with propagation). Rows
// are probed one at a time against the current liveness: a kill that
// propagates back into the node spares the later probes the cost model
// no longer charges for.
func (w *worker) applyFiltersCOM(chunk *factor.Chunk, at plan.NodeID) {
	r := w.r
	node := chunk.Node(at)
	rel := r.ds.Relation(at)
	for _, c := range r.children[at] {
		filter := r.filters[c]
		keyCol := rel.Column(r.ds.KeyColumn(c))
		for i, row := range node.Rows {
			if !node.Live[i] {
				continue
			}
			w.filterProbes++
			if !filter.MayContain(keyCol[row]) {
				chunk.Kill(node, i)
			}
		}
	}
}
