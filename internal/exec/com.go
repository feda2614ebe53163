package exec

import (
	"m2mjoin/internal/buf"
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
// Every step has one shape: a batched table probe of the parent's live
// rows (joinCOM), then one batched filter pass over the new node
// (applyFiltersCOM); the root gets its filter pass before the first
// join. Each worker reuses one factor.Chunk across all its driver
// chunks (factor.Chunk.Reset recycles every node and buffer), and
// probes go through the worker's reused key/mask/probe scratch, so
// steady-state execution allocates nothing per chunk.

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
		w.joinCOM(chunk, next)
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
// rows of at's factor node in one batched pass: each child's filter
// probes the rows every earlier child passed (one selection mask,
// narrowed in place), and the misses are killed, with propagation,
// after the last filter. The pass runs right after at joins, while at
// has no child nodes, and a kill climbs to an ancestor only once every
// row of at below that ancestor is dead — so no kill reaches another
// live row of at, and the pass probes exactly the rows a row-at-a-time
// pass would.
func (w *worker) applyFiltersCOM(chunk *factor.Chunk, at plan.NodeID) {
	r := w.r
	if r.filters == nil || len(r.children[at]) == 0 {
		return
	}
	node := chunk.Node(at)
	rel := r.ds.Relation(at)
	w.passed = buf.Grow(w.passed, len(node.Rows))
	sel := node.Live
	for _, c := range r.children[at] {
		keys := w.gatherKeys(rel.Column(r.ds.KeyColumn(c)), node.Rows)
		w.filterProbes += int64(r.filters[c].ProbeContains(keys, sel, w.passed))
		sel = w.passed
	}
	for i, ok := range w.passed {
		if node.Live[i] && !ok {
			chunk.Kill(node, i)
		}
	}
}
