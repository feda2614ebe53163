package cost

import (
	"math"
	"sort"

	"m2mjoin/internal/plan"
)

// This file implements phase 1 of semi-join full reduction (SJ,
// Section 3.6): relations are reduced bottom-up, each parent
// semi-joined with its (already reduced) children, leaves' parents
// first, ending with the driver, which becomes fully reduced. Phase 2
// is the ordinary model on the SemiJoin view: by construction every
// match probability is 1 and the fanouts are adjusted per Theorem 3.4.

// AdjustedStats applies Theorem 3.4: given parent->child statistics
// (m, fo) and an independent reduction of the child by `ratio`, the
// adjusted match probability and fanout when probing into the reduced
// child are
//
//	m'  = m * (1 - (1-ratio)^fo)
//	fo' = fo * ratio / (1 - (1-ratio)^fo)
//
// so that s' = m'*fo' = ratio * m * fo, matching the classical
// selectivity adjustment.
func AdjustedStats(st plan.EdgeStats, ratio float64) plan.EdgeStats {
	if ratio >= 1 {
		return st
	}
	surv := 1 - math.Pow(1-ratio, st.Fo)
	if surv <= 0 {
		// ratio is zero, or so small that 1-ratio rounds to 1: the
		// limit of the formulas below, not their 0/0.
		return plan.EdgeStats{M: 0, Fo: 1}
	}
	return plan.EdgeStats{
		M:  st.M * surv,
		Fo: st.Fo * ratio / surv,
	}
}

// reduce computes m.ratio and m.adjusted, children before parents.
func (m *Model) reduce() {
	n := m.tree.Len()
	m.ratio, m.adjusted = make([]float64, n), make([]plan.EdgeStats, n)
	for _, id := range m.tree.BottomUp() {
		ratio := 1.0
		for _, c := range m.tree.Children(id) {
			ratio *= m.adjusted[c].M
		}
		m.ratio[id] = ratio
		if id != plan.Root {
			m.adjusted[id] = AdjustedStats(m.tree.Stats(id), ratio)
		}
	}
}

// ReductionRatio returns the fraction of relation id's tuples that
// survive phase 1, i.e. the semi-joins with all of id's own (already
// reduced) children. Leaves are never reduced (ratio 1).
func (m *Model) ReductionRatio(id plan.NodeID) float64 { return m.ratio[id] }

// SemiJoinOrder returns the children of parent in the phase-1 probe
// order the paper proves optimal: increasing adjusted match
// probability m' (Section 3.6, optimization decision 2).
func (m *Model) SemiJoinOrder(parent plan.NodeID) []plan.NodeID {
	children := append([]plan.NodeID(nil), m.tree.Children(parent)...)
	sort.Slice(children, func(i, j int) bool {
		mi, mj := m.adjusted[children[i]].M, m.adjusted[children[j]].M
		if mi != mj {
			return mi < mj
		}
		return children[i] < children[j]
	})
	return children
}

// Phase1Probes returns the expected number of semi-join probes of
// phase 1 per driver tuple, with each parent probing its children in
// the optimal (increasing m') order. The counts follow the paper's
// running-example derivation: the first semi-join of a parent probes
// all of the parent's tuples; each subsequent one probes only the
// survivors of the previous semi-joins.
func (m *Model) Phase1Probes() float64 {
	probes := 0.0
	for _, p := range m.tree.BottomUp() {
		remaining := m.RelCard(p)
		for _, c := range m.SemiJoinOrder(p) {
			probes += remaining * m.ProbeCost(c)
			remaining *= m.adjusted[c].M
		}
	}
	return probes
}
