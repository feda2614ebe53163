// Package opt implements the join-order optimization algorithms of
// Kalumin & Deshpande (ICDE 2025, Sections 3.4-3.6) for left-deep
// pipelined plans over acyclic join trees:
//
//   - Exhaustive: the dynamic program of Algorithm 1 over connected
//     prefixes of the join tree; optimal for every strategy whose cost
//     obeys the principle of optimality (all six, for a fixed driver).
//   - RankOrdering: the classical greedy by selectivity s = m*fo, which
//     is what the rank-ordering algorithm reduces to under unit probe
//     costs; it models what today's optimizers do (Section 3.4).
//   - GreedyResultSize: picks the next operator minimizing the expected
//     number of tuples generated by that join.
//   - GreedySurvival: picks the next operator minimizing the total
//     survival probability of the joined prefix; the paper's best
//     heuristic.
//
// The semi-join strategies need no search: their optimal plan is found
// in polynomial time (Section 3.6), whatever algorithm is asked for.
package opt

import (
	"math"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
)

// Algorithm identifies a join-order optimization algorithm.
type Algorithm int

const (
	// Exhaustive is the dynamic program of Algorithm 1.
	Exhaustive Algorithm = iota
	// RankOrdering greedily picks the eligible operator with the
	// smallest selectivity m*fo.
	RankOrdering
	// GreedyResultSize greedily minimizes the expected number of new
	// tuples generated by the next join.
	GreedyResultSize
	// GreedySurvival greedily minimizes the survival probability of
	// the joined prefix.
	GreedySurvival
)

var algorithmNames = [...]string{
	Exhaustive:       "exhaustive",
	RankOrdering:     "rank ordering",
	GreedyResultSize: "greedy result size",
	GreedySurvival:   "greedy survival prob",
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	if a < 0 || int(a) >= len(algorithmNames) {
		return "unknown"
	}
	return algorithmNames[a]
}

// Result is the outcome of one optimization run.
type Result struct {
	Order plan.Order
	// SemiJoins maps each relation with children (the driver included)
	// to the order in which phase 1 semi-joins them; nil unless the
	// strategy is a semi-join one.
	SemiJoins map[plan.NodeID][]plan.NodeID
	// Cost is the order's cost with flat output (the expansion included
	// for COM variants), matching the paper's default comparison.
	Cost cost.PlanCost
}

// newResult completes a join order into a plan: every relation's
// children are semi-joined in increasing adjusted match probability,
// the order the paper proves optimal, whatever the join order.
func newResult(m *cost.Model, s cost.Strategy, order plan.Order) Result {
	r := Result{Order: order, Cost: m.Cost(s, order, true)}
	if s.Reduction() == cost.SemiJoin {
		t := m.Tree()
		r.SemiJoins = make(map[plan.NodeID][]plan.NodeID)
		for _, id := range t.TopDown() {
			if !t.IsLeaf(id) {
				r.SemiJoins[id] = m.SemiJoinOrder(id)
			}
		}
	}
	return r
}

// Optimize plans the model's tree under strategy s. A semi-join
// strategy gets the optimal plan of Section 3.6, which takes no search;
// any other gets the join order algorithm a finds.
func Optimize(m *cost.Model, s cost.Strategy, a Algorithm) Result {
	if s.Reduction() == cost.SemiJoin {
		return newResult(m, s, sjPhase2Order(m, s))
	}
	switch a {
	case Exhaustive:
		return ExhaustiveDP(m, s)
	case RankOrdering:
		return newResult(m, s, greedyOrder(m, rankKey))
	case GreedyResultSize:
		return newResult(m, s, greedyOrder(m, resultSizeKey))
	case GreedySurvival:
		return newResult(m, s, greedyOrder(m, survivalKey))
	default:
		panic("opt: unknown algorithm")
	}
}

// orInf maps a cost the model could not compute (NaN, ±Inf: statistics
// outside its domain) to +Inf, so that a search never keeps it over a
// number and never fails to replace it with one.
func orInf(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return math.Inf(1)
	}
	return x
}

// ExhaustiveDP implements Algorithm 1: dynamic programming over all
// connected subtrees of the join tree that contain the driver. The cost
// function obeys the principle of optimality for a fixed driver
// (Theorem 3.3 extends this to BVP), so best[T] can be computed from
// best[T \ {n}] plus the marginal probes into n. SJ strategies are also
// handled: their phase-1 cost is order-independent and the phase-2 cost
// decomposes the same way. Ties break one way only: sets are visited in
// discovery order, candidates in ascending NodeID order, and only a
// strictly cheaper prefix replaces one — so an all-tied tree yields the
// ascending order.
func ExhaustiveDP(m *cost.Model, s cost.Strategy) Result {
	t := m.Tree()
	n := t.Len()

	type entry struct {
		cost float64     // summed marginals of the cheapest order joining the set
		last plan.NodeID // that order's final join
	}
	start := plan.SetOf(plan.Root)
	best := map[plan.Set]entry{start: {}}

	// Breadth-first over the connected sets containing Root, by size.
	current := []plan.Set{start}
	for size := 1; size < n; size++ {
		var next []plan.Set
		for _, set := range current {
			e := best[set]
			for cand := range t.Frontier(set).All() {
				total := orInf(e.cost + m.Marginal(s, cand, set))
				grown := set.With(cand)
				old, seen := best[grown]
				if !seen {
					next = append(next, grown)
				}
				if !seen || total < old.cost {
					best[grown] = entry{cost: total, last: cand}
				}
			}
		}
		current = next
	}

	order := make(plan.Order, n-1)
	for set := current[0]; set != start; {
		last := best[set].last
		order[set.Len()-2] = last
		set = set.Without(last)
	}
	return newResult(m, s, order)
}

// keyFunc scores joining id next after the prefix done; lower is better.
type keyFunc func(m *cost.Model, done plan.Set, id plan.NodeID) float64

// greedyOrder builds an order by repeatedly joining the frontier
// relation with the smallest key; ties go to the lowest NodeID.
func greedyOrder(m *cost.Model, key keyFunc) plan.Order {
	t := m.Tree()
	done := plan.SetOf(plan.Root)
	order := make(plan.Order, 0, t.Len()-1)
	for len(order) < t.Len()-1 {
		chosen, least := plan.Root, math.Inf(1)
		for id := range t.Frontier(done).All() {
			if k := orInf(key(m, done, id)); chosen == plan.Root || k < least {
				chosen, least = id, k
			}
		}
		order = append(order, chosen)
		done = done.With(chosen)
	}
	return order
}

// rankKey is the rank (s-1)/c of the classical rank-ordering
// algorithm; under unit probe costs this is ordering by selectivity
// m*fo.
func rankKey(m *cost.Model, _ plan.Set, id plan.NodeID) float64 {
	return (m.Tree().Stats(id).Selectivity() - 1) / m.ProbeCost(id)
}

// resultSizeKey is the expected number of tuples produced by joining
// id next under the factorized model: probes(id) * m * fo.
func resultSizeKey(m *cost.Model, done plan.Set, id plan.NodeID) float64 {
	st := m.Tree().Stats(id)
	return m.ProbesCOM(id, done) * st.M * st.Fo
}

// survivalKey is the total survival probability of the joined prefix
// after adding id.
func survivalKey(m *cost.Model, done plan.Set, id plan.NodeID) float64 {
	return m.SurvivalTree(plan.Root, done.With(id))
}

// sjPhase2Order builds the optimal phase-2 join order of a semi-join
// strategy (Section 3.6). For SJ+STD the cost has the ASI form
// sum_i prod_{j<i} fo'_j (all match probabilities are 1 after
// reduction), so the precedence-constrained rank-ordering algorithm is
// optimal with c=1 and s=fo'. For SJ+COM every valid order has the same
// cost (Theorem 3.5); we order by the product of adjusted fanouts on
// the root path, matching the paper's statement.
func sjPhase2Order(m *cost.Model, s cost.Strategy) plan.Order {
	t := m.Tree()
	adjFo := func(id plan.NodeID) float64 {
		return cost.AdjustedStats(t.Stats(id), m.ReductionRatio(id)).Fo
	}
	if !s.Factorized() {
		jobs := make([]rankJob, 0, t.Len()-1)
		for _, id := range t.NonRoot() {
			jobs = append(jobs, rankJob{id: id, c: 1, s: adjFo(id)})
		}
		return rankOrderPrecedence(jobs, t.Parent)
	}
	return greedyOrder(m, func(_ *cost.Model, _ plan.Set, id plan.NodeID) float64 {
		k := 1.0
		for cur := id; cur != plan.Root; cur = t.Parent(cur) {
			k *= adjFo(cur)
		}
		return k
	})
}
