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
// A step runs STD's table probe (probeJoin, exec.go) over the parent's
// live rows, then the node's own filter pass (applyFiltersCOM), which
// keeps the survivors in place: each bitvector's kernel
// (bitvector.Filter.Retain) gathers and probes only the rows the
// previous one kept, and factor.Chunk.Truncate cuts the still childless
// node to them, so misses never exist as dead rows and no later pass
// walks them; the root gets its filter pass before the first join. Flat
// output with no residual and no CollectOutput is counted and
// checksummed by the expansion alone, with no call per tuple; the emit
// callbacks serve the other cases. Each worker reuses one factor.Chunk
// across all its driver chunks (factor.Chunk.Reset recycles every node
// and buffer), and probes go through the worker's reused key/probe
// scratch, so steady-state execution allocates nothing per chunk.

// runCOMChunk executes the factorized pipeline for one driver chunk.
func (w *worker) runCOMChunk(driverRows []int32) {
	r := w.r
	chunk := w.chunk
	chunk.Reset(driverRows)
	w.nodes[plan.Root] = chunk.Driver()
	w.applyFiltersCOM(chunk, plan.Root)
	for _, next := range r.opts.Order {
		if chunk.Driver().LiveCount == 0 {
			break
		}
		parentID := r.ds.Tree.Parent(next)
		parent := chunk.Node(parentID)
		res := w.probeJoin(next, parent.Rows, parent.Live)
		w.nodes[next] = chunk.AddJoin(parentID, next, res.Counts, res.Rows)
		w.applyFiltersCOM(chunk, next)
	}
	if chunk.Driver().LiveCount == 0 || len(chunk.Order()) != r.ds.Tree.Len() {
		return
	}
	switch {
	case r.opts.FlatOutput && r.residuals == nil && r.opts.CollectOutput == nil:
		// Each tuple's checksum is sumBase plus its sum of terms.
		count, sum := chunk.Expand(w.termFn, nil)
		w.outputTuples += count
		w.expandedTuples += count
		w.checksum += uint64(count)*r.sumBase + sum
	case r.opts.FlatOutput:
		w.emitPassed = 0
		expanded, _ := chunk.Expand(w.termFn, w.emitFn)
		w.outputTuples += w.emitPassed
		w.expandedTuples += expanded
	case r.residuals != nil:
		// Factorized output with residual predicates: the
		// representation cannot express the cyclic constraint, so
		// counting requires enumerating (without materializing).
		w.emitPassed = 0
		chunk.Expand(nil, w.residualCountFn)
		w.outputTuples += w.emitPassed
		w.factorizedRows += int64(chunk.FactorizedSize())
	default:
		w.outputTuples += chunk.CountOutput()
		w.factorizedRows += int64(chunk.FactorizedSize())
	}
}

// applyFiltersCOM runs the bitvectors of at's children, in ascending
// order, over at's factor node, right after at joins: each keeps at the
// front of the node's rows (moving ParentRow along) the rows every
// earlier one kept, and Truncate then cuts the node to them and kills
// each parent row whose segment emptied. The node is all live here —
// Reset and AddJoin return nothing else — and has no children yet, and
// a kill climbs to an ancestor only once every row of at below that
// ancestor is dead, so no kill reaches a surviving row of at: the pass
// probes exactly the rows a row-at-a-time pass would. Truncate panics
// if the invariant breaks.
func (w *worker) applyFiltersCOM(chunk *factor.Chunk, at plan.NodeID) {
	r := w.r
	if r.filters == nil || len(r.children[at]) == 0 {
		return
	}
	node := chunk.Node(at)
	var carry []int32
	if node.Parent != nil {
		carry = node.ParentRow
	}
	rel := r.ds.Relation(at)
	k := len(node.Rows)
	for _, c := range r.children[at] {
		w.filterProbes += int64(k)
		k = r.filters[c].Retain(rel.Column(r.ds.KeyColumn(c)), node.Rows[:k], carry)
	}
	chunk.Truncate(node, k)
}
