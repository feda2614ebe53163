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
// A step runs STD's two helpers (exec.go) on factor nodes: the table
// probe of the parent's live rows (probeJoin), then one filter pass
// over the new node (filterPass) whose misses are killed; the root gets
// its filter pass before the first join. Each worker reuses one
// factor.Chunk across all its driver chunks (factor.Chunk.Reset
// recycles every node and buffer), and probes go through the worker's
// reused key/mask/probe scratch, so steady-state execution allocates
// nothing per chunk.

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

// applyFiltersCOM runs at's filter pass over the live rows of its
// factor node and kills the misses, with propagation. The pass runs
// right after at joins, while at has no child nodes, and a kill climbs
// to an ancestor only once every row of at below that ancestor is dead
// — so no kill reaches another live row of at, and the batched pass
// probes exactly the rows a row-at-a-time pass would.
func (w *worker) applyFiltersCOM(chunk *factor.Chunk, at plan.NodeID) {
	node := chunk.Node(at)
	for i, ok := range w.filterPass(at, node.Rows, node.Live) {
		if node.Live[i] && !ok {
			chunk.Kill(node, i)
		}
	}
}
