package cost

import (
	"math"

	"m2mjoin/internal/plan"
)

// This file implements the cost model for bitvector-based early pruning
// (BVP, Section 3.5). Every join operator builds a bitvector over its
// build-side join key; the bitvector is pushed down to the lowest
// applicable point of the pipeline (Fig. 3):
//
//   - bitvectors for the driver's children filter driver tuples before
//     the first hash probe;
//   - the bitvector of any other relation c filters the rows of c's
//     parent immediately after the parent's own join materializes them.
//
// A bitvector passes a tuple with probability (m + epsilon): matching
// tuples always pass, non-matching ones pass on a false positive.
// Bitvectors belonging to the same materialization point are applied in
// ascending NodeID order (the paper applies them in plan order; the
// difference only redistributes filter probes within one event and is
// bounded by the event's stream size — we pick the deterministic order
// so that marginal costs depend on the joined set alone).

// bvpState tracks which relations have been joined and which have had
// their bitvector applied but whose hash join has not yet run.
type bvpState struct {
	done, pending plan.Set
}

// CostBVPSTD returns the cost of order o under standard (fully
// materializing) execution with bitvector early pruning. The stream of
// intermediate tuples is tracked as a scalar expectation; each event
// (bitvector application or hash join) charges probes against the
// current stream and rescales it.
func (m *Model) CostBVPSTD(o plan.Order) PlanCost {
	eps := m.weights.Epsilon
	pc := PlanCost{Strategy: BVPSTD}
	joined := plan.SetOf(plan.Root)
	stream := 1.0

	applyBVs := func(at plan.NodeID) {
		for _, c := range m.childrenByID(at, joined) {
			pc.FilterProbes += stream
			stream *= m.tree.Stats(c).M + eps
		}
	}

	applyBVs(plan.Root)
	for _, c := range o {
		pc.HashProbes += stream * m.ProbeCost(c)
		st := m.tree.Stats(c)
		// The stream was already thinned by (m+eps) when BV(c) was
		// applied; the join keeps the true matches and fans them out.
		stream *= st.M / (st.M + eps) * st.Fo
		joined = joined.With(c)
		applyBVs(c)
	}
	return m.finish(pc)
}

// survivalBVP generalizes the survival probability m_T to account for
// applied-but-unjoined bitvectors: a tuple of subtree root `id`
// survives if it matches its own join, passes the bitvector filters of
// its pending children, and has at least one surviving combination of
// matches through its joined children.
func (m *Model) survivalBVP(id plan.NodeID, st bvpState) float64 {
	eps := m.weights.Epsilon
	childProd := 1.0
	any := false
	for _, c := range m.tree.Children(id) {
		switch {
		case st.done.Has(c):
			childProd *= m.survivalBVP(c, st)
			any = true
		case st.pending.Has(c):
			childProd *= m.tree.Stats(c).M + eps
			any = true
		}
	}
	var mSelf, fo float64
	if id == plan.Root {
		mSelf, fo = 1, 1
	} else {
		stats := m.tree.Stats(id)
		mSelf, fo = stats.M, stats.Fo
	}
	if !any {
		return mSelf
	}
	return mSelf * (1 - math.Pow(1-childProd, fo))
}

// levelCountBVP returns the expected number of live rows (per driver
// tuple) in the factorized vector of relation `at`, given the joins in
// st.done and the bitvector filters in st.pending. It generalizes
// Equation (1): expansion happens along the root->at path; everything
// hanging off the path contributes survival probabilities (for joined
// subtrees) or bitvector pass factors (for pending filters).
func (m *Model) levelCountBVP(at plan.NodeID, st bvpState) float64 {
	eps := m.weights.Epsilon
	count := 1.0
	// Walk at, its parent, .., the root; below is the child of a on
	// that path (no child of at is, so the walk starts with at itself).
	for below, a := at, at; ; below, a = a, m.tree.Parent(a) {
		if a != plan.Root {
			stats := m.tree.Stats(a)
			count *= stats.M * stats.Fo
		}
		for _, c := range m.tree.Children(a) {
			switch {
			case c == below:
			case st.done.Has(c):
				count *= m.survivalBVP(c, st)
			case st.pending.Has(c):
				count *= m.tree.Stats(c).M + eps
			}
		}
		if a == plan.Root {
			return count
		}
	}
}

// CostBVPCOM returns the cost of order o under factorized execution
// with bitvector early pruning (the BVP+COM combination of Section
// 3.5). Probes into a relation whose join attribute belongs to an
// ancestor count only surviving ancestor rows, with fanouts taken out
// of the equation exactly as in the paper's R5 example.
func (m *Model) CostBVPCOM(o plan.Order, flatOutput bool) PlanCost {
	pc := PlanCost{Strategy: BVPCOM}
	st := bvpState{done: plan.SetOf(plan.Root)}

	applyBVs := func(at plan.NodeID) {
		for _, c := range m.childrenByID(at, st.done) {
			// The filter sees the rows of `at` before BV(c) itself is
			// accounted, then thins them.
			pc.FilterProbes += m.levelCountBVP(at, st)
			st.pending = st.pending.With(c)
		}
	}

	applyBVs(plan.Root)
	for _, c := range o {
		// Probing c's hash table: the probing rows live at c's parent's
		// level and have already been filtered by BV(c) (c is pending).
		pc.HashProbes += m.levelCountBVP(m.tree.Parent(c), st) * m.ProbeCost(c)
		st = bvpState{done: st.done.With(c), pending: st.pending.Without(c)}
		applyBVs(c)
	}
	if flatOutput {
		pc.ExpandedTuples = m.OutputTuples()
	}
	return m.finish(pc)
}
