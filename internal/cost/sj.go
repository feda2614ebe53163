package cost

import (
	"math"
	"sort"

	"m2mjoin/internal/plan"
)

// This file implements the cost model for semi-join full reduction
// (SJ, Section 3.6). Phase 1 reduces relations bottom-up: each parent
// is semi-joined with its (already reduced) children, leaves' parents
// first, ending with the driver, which becomes fully reduced. Phase 2
// runs a normal left-deep plan from the reduced driver; by construction
// every phase-2 match probability is 1 and the fanouts are adjusted per
// Theorem 3.4.

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

// ReductionRatio returns the fraction of relation id's tuples that
// survive phase 1, i.e. the semi-joins with all of id's own (already
// reduced) children. Leaves are never reduced (ratio 1).
func (m *Model) ReductionRatio(id plan.NodeID) float64 {
	ratio := 1.0
	for _, c := range m.tree.Children(id) {
		ratio *= m.adjustedM(c)
	}
	return ratio
}

// adjustedM returns m'_{parent->c}: the probability that a parent tuple
// has a match in child c after c has been reduced by its own children.
func (m *Model) adjustedM(c plan.NodeID) float64 {
	st := m.tree.Stats(c)
	return AdjustedStats(st, m.ReductionRatio(c)).M
}

// adjustedFo returns fo'_{parent->c} for phase 2: the expected number
// of matches in reduced child c for a parent tuple that has at least
// one (which, after reduction of the parent, is every parent tuple).
func (m *Model) adjustedFo(c plan.NodeID) float64 {
	st := m.tree.Stats(c)
	return AdjustedStats(st, m.ReductionRatio(c)).Fo
}

// SemiJoinOrder returns the children of parent in the phase-1 probe
// order the paper proves optimal: increasing adjusted match
// probability m' (Section 3.6, optimization decision 2).
func (m *Model) SemiJoinOrder(parent plan.NodeID) []plan.NodeID {
	children := append([]plan.NodeID(nil), m.tree.Children(parent)...)
	sort.Slice(children, func(i, j int) bool {
		mi, mj := m.adjustedM(children[i]), m.adjustedM(children[j])
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
		children := m.SemiJoinOrder(p)
		if len(children) == 0 {
			continue
		}
		remaining := m.RelCard(p)
		for _, c := range children {
			probes += remaining * m.ProbeCost(c)
			remaining *= m.adjustedM(c)
		}
	}
	return probes
}

// CostSJSTD returns the cost of order o for the two-phase full
// reduction followed by standard execution. Phase-1 semi-join probes
// are filter probes; phase-2 hash probes use match probability 1 and
// the Theorem 3.4 adjusted fanouts, scaled by the reduced driver
// cardinality.
func (m *Model) CostSJSTD(o plan.Order) PlanCost {
	pc := PlanCost{Strategy: SJSTD}
	pc.FilterProbes = m.Phase1Probes()
	stream := m.ReductionRatio(plan.Root)
	for _, c := range o {
		pc.HashProbes += stream * m.ProbeCost(c)
		stream *= m.adjustedFo(c)
	}
	return m.finish(pc)
}

// CostSJCOM returns the cost of order o for full reduction followed by
// factorized execution. With all match probabilities equal to 1, the
// branch survival terms of Equation (1) vanish and the probes into a
// relation depend only on the product of adjusted fanouts along its
// root path — which is why the phase-2 cost is independent of the join
// order (Theorem 3.5).
func (m *Model) CostSJCOM(o plan.Order, flatOutput bool) PlanCost {
	pc := PlanCost{Strategy: SJCOM}
	pc.FilterProbes = m.Phase1Probes()
	reduced := m.ReductionRatio(plan.Root)
	for _, c := range o {
		probes := reduced
		for _, a := range m.tree.PathToRoot(c) {
			if a != plan.Root {
				probes *= m.adjustedFo(a)
			}
		}
		pc.HashProbes += probes * m.ProbeCost(c)
	}
	if flatOutput {
		pc.ExpandedTuples = m.OutputTuples()
	}
	return m.finish(pc)
}
