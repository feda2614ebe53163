package cost

import (
	"math"

	"m2mjoin/internal/plan"
)

// view is the statistics one Reduction shows the two row formulas (the
// table in the package comment); a Model builds its three once.
type view struct {
	tree *plan.Tree
	// stats are the (m, fo) of the edge into each relation, by NodeID;
	// the driver's are (1, 1).
	stats []plan.EdgeStats
	// scale is the fraction of the driver that enters the joins; every
	// product of the formulas starts from it.
	scale float64
	// pass[id] is the probability that a row of id's parent passes
	// id's pushed-down filter; nil when the reduction pushes none down.
	pass []float64
	// initial is the order-independent filter probes charged before
	// the first join.
	initial float64
}

// buildViews fills m.views from the tree, the weights and phase 1 of
// the full reduction.
func (m *Model) buildViews() {
	m.reduce()
	t := m.tree
	n := t.Len()
	base := view{tree: t, stats: make([]plan.EdgeStats, n), scale: 1}
	bvp := view{tree: t, stats: base.stats, scale: 1, pass: make([]float64, n)}
	sj := view{tree: t, stats: make([]plan.EdgeStats, n), scale: m.ratio[plan.Root], initial: m.Phase1Probes()}
	base.stats[plan.Root] = plan.EdgeStats{M: 1, Fo: 1}
	sj.stats[plan.Root] = base.stats[plan.Root]
	for _, id := range t.NonRoot() {
		st := t.Stats(id)
		base.stats[id] = st
		// A bitvector passes every matching row and a non-matching one
		// on a false positive; the sum is a probability.
		bvp.pass[id] = math.Min(st.M+m.weights.Epsilon, 1)
		// Every row that reaches phase 2 has a match (Theorem 3.4).
		sj.stats[id] = plan.EdgeStats{M: 1, Fo: m.adjusted[id].Fo}
	}
	// The bitvectors of the driver's children filter the driver before
	// the first probe (Fig. 3).
	bvp.initial = bvp.pushDown(plan.Root, bvp.scale)
	m.views = [3]view{Unreduced: base, Bitvector: bvp, SemiJoin: sj}
}

// rows returns the expected rows of relation `at` alive per driver
// tuple once the connected prefix done is joined and the filters of
// pending are applied: the flat stream, in which every row of every
// joined relation is one materialized tuple, or the factorized level
// count of `at` alone.
func (v *view) rows(factorized bool, at plan.NodeID, done, pending plan.Set) float64 {
	if factorized {
		return v.levelCount(at, done, pending)
	}
	return v.stream(done, pending)
}

// stream is the classical model of Section 2.1: each join multiplies
// the flat intermediate result by its selectivity m*fo, each pending
// filter thins it by its pass factor.
func (v *view) stream(done, pending plan.Set) float64 {
	rows := v.scale
	for id := range done.All() {
		st := v.stats[id]
		rows *= st.M * st.Fo
	}
	for id := range pending.All() {
		rows *= v.pass[id]
	}
	return rows
}

// levelCount is Equation (1), generalized to pending filters: expansion
// happens along the root->at path only; everything hanging off the path
// contributes a survival probability (a joined subtree) or a pass
// factor (a pending filter).
func (v *view) levelCount(at plan.NodeID, done, pending plan.Set) float64 {
	count := v.scale
	// Walk at, its parent, .., the root; below is the child of a on
	// that path (no child of at is, so the walk starts with at itself).
	for below, a := at, at; ; below, a = a, v.tree.Parent(a) {
		st := v.stats[a]
		count *= st.M * st.Fo
		for _, c := range v.tree.Children(a) {
			switch {
			case c == below:
			case done.Has(c):
				count *= v.survival(c, done, pending)
			case pending.Has(c):
				count *= v.pass[c]
			}
		}
		if a == plan.Root {
			return count
		}
	}
}

// survival is m_T of Section 3.3 for the subtree of id within done,
// generalized to pending filters: a row of id survives if it matches
// its own join and at least one of its fo matches passes the filters
// of id's pending children and survives id's joined children.
func (v *view) survival(id plan.NodeID, done, pending plan.Set) float64 {
	childProd, constrained := 1.0, false
	for _, c := range v.tree.Children(id) {
		switch {
		case done.Has(c):
			childProd *= v.survival(c, done, pending)
			constrained = true
		case pending.Has(c):
			childProd *= v.pass[c]
			constrained = true
		}
	}
	st := v.stats[id]
	if !constrained {
		return st.M
	}
	return st.M * (1 - math.Pow(1-childProd, st.Fo))
}

// pushDown returns the filter probes of applying the filters of at's
// children to `rows` freshly materialized rows of at, one after the
// other in ascending NodeID order: each sees what the previous ones
// let pass. (The paper applies them in plan order; the difference only
// redistributes filter probes within one materialization and is bounded
// by its row count — the deterministic order is what makes the marginal
// a function of the joined set alone.)
func (v *view) pushDown(at plan.NodeID, rows float64) float64 {
	probes := 0.0
	for _, c := range v.tree.Children(at) {
		probes += rows
		rows *= v.pass[c]
	}
	return probes
}
