package opt

import (
	"math"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
)

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// bruteForceBest finds the cheapest order by enumerating all valid
// orders — the ground truth for the DP.
func bruteForceBest(m *cost.Model, s cost.Strategy) (plan.Order, float64) {
	var bestO plan.Order
	best := math.Inf(1)
	for _, o := range m.Tree().AllOrders() {
		c := m.Cost(s, o, true).Total
		if c < best {
			best = c
			bestO = o
		}
	}
	return bestO, best
}

// TestExhaustiveMatchesBruteForce: Algorithm 1 must find the optimal
// cost for every strategy on random small trees. For BVP this is the
// empirical confirmation of Theorem 3.3 (principle of optimality holds
// for left-deep plans with a fixed driver).
func TestExhaustiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		tr := plan.RandomTree(2+rng.Intn(6), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := cost.New(tr, cost.DefaultWeights())
		for _, s := range cost.AllStrategies {
			got := ExhaustiveDP(model, s)
			_, want := bruteForceBest(model, s)
			if !almostEqual(got.Cost.Total, want) {
				t.Fatalf("strategy %v tree %v: DP cost %v != brute force %v (order %v)",
					s, tr, got.Cost.Total, want, got.Order)
			}
			if !got.Order.Valid(tr) {
				t.Fatalf("strategy %v: DP produced invalid order %v", s, got.Order)
			}
		}
	}
}

// TestBVPPrincipleOfOptimality is the empirical check of Theorem 3.3:
// with a fixed driver, the marginal cost of continuing a left-deep BVP
// plan depends only on the set of already-joined relations, not on the
// order within the prefix. Consequently two orders that share the same
// prefix set and an identical suffix sequence differ in cost by exactly
// the difference of their prefix costs — the substitution property the
// DP of Algorithm 1 needs.
func TestBVPPrincipleOfOptimality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		tr := plan.RandomTree(4+rng.Intn(4), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := cost.New(tr, cost.DefaultWeights())
		orders := tr.AllOrders()
		half := (tr.Len() - 1) / 2
		if half < 1 {
			continue
		}
		for _, s := range []cost.Strategy{cost.BVPSTD, cost.BVPCOM} {
			// Group full orders by (prefix set, suffix sequence); within
			// a group, total - prefixCost must be constant.
			type groupKey struct {
				set    uint64
				suffix string
			}
			groups := map[groupKey][]float64{} // completion costs
			for _, o := range orders {
				var set uint64
				for _, id := range o[:half] {
					set |= 1 << uint(id)
				}
				gk := groupKey{set, plan.Order(o[half:]).String()}
				total := model.Cost(s, o, false).Total
				prefix := model.Cost(s, o[:half], false).Total
				groups[gk] = append(groups[gk], total-prefix)
			}
			for gk, completions := range groups {
				for _, c := range completions[1:] {
					if !almostEqual(c, completions[0]) {
						t.Fatalf("strategy %v set %b suffix %s: completion cost depends on prefix order: %v vs %v",
							s, gk.set, gk.suffix, c, completions[0])
					}
				}
			}
		}
	}
}

// TestGreedySurvivalNearOptimal: across random trees, the survival
// heuristic should be within a small factor of optimal on average —
// the paper's headline Fig. 10 finding.
func TestGreedySurvivalNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	worstRatio := 1.0
	sumRatio, n := 0.0, 0
	for trial := 0; trial < 50; trial++ {
		tr := plan.RandomTree(4+rng.Intn(7), rng,
			plan.UniformStats(rng, 0.05, 0.5, 1, 10))
		model := cost.New(tr, cost.DefaultWeights())
		best := ExhaustiveDP(model, cost.COM).Cost.Total
		surv := Optimize(model, cost.COM, GreedySurvival).Cost.Total
		ratio := surv / best
		if ratio < 1-1e-9 {
			t.Fatalf("heuristic beat the exhaustive optimum: %v < %v", surv, best)
		}
		sumRatio += ratio
		n++
		if ratio > worstRatio {
			worstRatio = ratio
		}
	}
	if avg := sumRatio / float64(n); avg > 1.5 {
		t.Errorf("survival heuristic average ratio %v too far from optimal", avg)
	}
}

// TestRankOrderingWorseThanSurvival: aggregate over many random trees,
// the rank-ordering heuristic (today's optimizers) must be worse than
// the survival heuristic under the COM cost model — the paper's
// central optimization claim.
func TestRankOrderingWorseThanSurvival(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rankSum, survSum := 0.0, 0.0
	for trial := 0; trial < 80; trial++ {
		tr := plan.RandomTree(5+rng.Intn(8), rng,
			plan.UniformStats(rng, 0.05, 0.5, 1, 10))
		model := cost.New(tr, cost.DefaultWeights())
		best := ExhaustiveDP(model, cost.COM).Cost.Total
		rankSum += Optimize(model, cost.COM, RankOrdering).Cost.Total / best
		survSum += Optimize(model, cost.COM, GreedySurvival).Cost.Total / best
	}
	if rankSum < survSum {
		t.Errorf("rank ordering (%v) unexpectedly beat survival (%v) in aggregate", rankSum, survSum)
	}
}

// TestHeuristicWorstCase builds the Theorem 3.2 adversarial input: an
// operator with near-zero match probability hidden under an operator
// with a high fanout. Greedy heuristics don't look below the frontier,
// so they join the cheap-looking branch first and pay the fanout.
func TestHeuristicWorstCase(t *testing.T) {
	tr := plan.NewTree("R1")
	// Branch A: high fanout parent hiding a killer child.
	a := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 50}, "A")
	tr.AddChild(a, plan.EdgeStats{M: 1e-6, Fo: 1}, "Akill")
	// Branch B: moderate operators that look less attractive than A's
	// selectivity to none of the heuristics but are harmless.
	b := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.95, Fo: 8}, "B")
	tr.AddChild(b, plan.EdgeStats{M: 0.9, Fo: 8}, "Bleaf")

	model := cost.New(tr, cost.DefaultWeights())
	best := ExhaustiveDP(model, cost.COM).Cost.Total
	for _, alg := range []Algorithm{RankOrdering, GreedyResultSize, GreedySurvival} {
		got := Optimize(model, cost.COM, alg)
		if got.Cost.Total < best-1e-9 {
			t.Fatalf("%v beat the optimum", alg)
		}
	}
	// The optimum joins A then Akill early, killing all tuples; at
	// least one greedy must be measurably worse than optimal here.
	worst := 0.0
	for _, alg := range []Algorithm{RankOrdering, GreedyResultSize, GreedySurvival} {
		r := Optimize(model, cost.COM, alg).Cost.Total / best
		if r > worst {
			worst = r
		}
	}
	if worst < 1.01 {
		t.Errorf("expected an adversarial gap, worst ratio = %v", worst)
	}
}

// TestSJOptimalSemiJoinOrder: children must be ordered by increasing
// adjusted match probability, whichever search found the join order.
func TestSJOptimalSemiJoinOrder(t *testing.T) {
	tr := plan.NewTree("R1")
	c1 := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 2}, "C1")
	c2 := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.1, Fo: 2}, "C2")
	c3 := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 2}, "C3")
	model := cost.New(tr, cost.DefaultWeights())
	for _, p := range []Result{Optimize(model, cost.SJSTD, Exhaustive), ExhaustiveDP(model, cost.SJCOM)} {
		order := p.SemiJoins[plan.Root]
		if len(order) != 3 || order[0] != c2 || order[1] != c3 || order[2] != c1 {
			t.Errorf("semi-join order = %v, want [C2 C3 C1]", order)
		}
		if !p.Order.Valid(tr) {
			t.Errorf("phase-2 order %v invalid", p.Order)
		}
	}
	if r := Optimize(model, cost.BVPCOM, Exhaustive); r.SemiJoins != nil {
		t.Errorf("BVP+COM plan carries semi-join orders %v", r.SemiJoins)
	}
}

// TestSJOptimalPhase2STD: the chosen phase-2 order for SJ+STD must be
// optimal among all valid orders.
func TestSJOptimalPhase2STD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		tr := plan.RandomTree(2+rng.Intn(6), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := cost.New(tr, cost.DefaultWeights())
		p := Optimize(model, cost.SJSTD, GreedySurvival)
		_, want := bruteForceBest(model, cost.SJSTD)
		if !almostEqual(p.Cost.Total, want) {
			t.Fatalf("SJ+STD phase-2 order %v cost %v != optimal %v (tree %v)",
				p.Order, p.Cost.Total, want, tr)
		}
	}
}

// TestSJOptimalPhase2COM: every order has the same cost (Theorem 3.5),
// so the plan must match the brute-force optimum trivially.
func TestSJOptimalPhase2COM(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		tr := plan.RandomTree(2+rng.Intn(6), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := cost.New(tr, cost.DefaultWeights())
		p := Optimize(model, cost.SJCOM, GreedySurvival)
		_, want := bruteForceBest(model, cost.SJCOM)
		if !almostEqual(p.Cost.Total, want) {
			t.Fatalf("SJ+COM cost %v != optimal %v", p.Cost.Total, want)
		}
	}
}

// TestSearchNeverKeepsANonNumber: on a two-leaf star whose first leaf
// carries M = NaN, every cost or key that has joined that leaf is NaN,
// and it is the first candidate every search looks at. A search that
// kept what arrived first (the DP's `!seen`, the greedy's first
// candidate) and compared with `<` never let go of it; each must
// instead join the costable leaf first, which under STD — where a
// relation's own statistics do not price its probe — is a finite plan.
func TestSearchNeverKeepsANonNumber(t *testing.T) {
	stats := []plan.EdgeStats{{M: math.NaN(), Fo: 2}, {M: 0.5, Fo: 2}}
	i := -1
	tr := plan.Star(2, func() plan.EdgeStats { i++; return stats[i] })
	model := cost.New(tr, cost.DefaultWeights())
	for _, a := range []Algorithm{Exhaustive, RankOrdering, GreedyResultSize, GreedySurvival} {
		r := Optimize(model, cost.STD, a)
		if got := r.Order.String(); got != (plan.Order{2, 1}).String() {
			t.Errorf("%v: order %s, want the costable leaf first", a, got)
		}
		if total := r.Cost.Total; math.IsNaN(total) || math.IsInf(total, 0) {
			t.Errorf("%v: cost %v of %v is not a number", a, total, r.Order)
		}
	}
}

// TestOptimizeDispatch covers the Algorithm switch and Stringers.
func TestOptimizeDispatch(t *testing.T) {
	tr := plan.Star(4, plan.FixedStats(0.5, 3))
	model := cost.New(tr, cost.DefaultWeights())
	for _, a := range []Algorithm{Exhaustive, RankOrdering, GreedyResultSize, GreedySurvival} {
		r := Optimize(model, cost.COM, a)
		if !r.Order.Valid(tr) {
			t.Errorf("%v produced invalid order", a)
		}
		if a.String() == "unknown" || a.String() == "" {
			t.Errorf("missing name for algorithm %d", a)
		}
	}
	if Algorithm(99).String() != "unknown" {
		t.Errorf("out-of-range algorithm should stringify as unknown")
	}
}

// TestOptimizersDeterministic: every optimizer returns one order per
// model however often it is asked, including on trees full of ties
// (with map-backed prefix sets the exhaustive SJ+STD search returned 67
// distinct orders in 300 calls on the fixed-stats snowflake), and on an
// all-tied tree that order is ascending NodeID, the documented
// tie-break.
func TestOptimizersDeterministic(t *testing.T) {
	twoValued, i := []plan.EdgeStats{{M: 0.3, Fo: 3.7}, {M: 0.6, Fo: 2}}, 0
	rng := rand.New(rand.NewSource(11))
	allTied := plan.Star(6, plan.FixedStats(0.3, 3.7))
	trees := []*plan.Tree{
		plan.Snowflake(3, 2, plan.FixedStats(0.3, 3.7)),
		plan.Star(6, func() plan.EdgeStats { i++; return twoValued[i%2] }),
		plan.RandomTree(12, rng, plan.UniformStats(rng, 0.05, 0.95, 1, 10)),
		allTied,
	}
	for _, tr := range trees {
		model := cost.New(tr, cost.DefaultWeights())
		for _, s := range cost.AllStrategies {
			searches := map[string]func() plan.Order{}
			for _, a := range []Algorithm{Exhaustive, RankOrdering, GreedyResultSize, GreedySurvival} {
				searches[a.String()] = func() plan.Order { return Optimize(model, s, a).Order }
			}
			// Optimize plans the SJ strategies without a search; the
			// DP over their marginals is the search that was not
			// deterministic.
			searches["ExhaustiveDP"] = func() plan.Order { return ExhaustiveDP(model, s).Order }
			for name, search := range searches {
				first := search().String()
				for call := 1; call < 100; call++ {
					if got := search().String(); got != first {
						t.Fatalf("%v %v on %v: call %d returned %s, the first %s", name, s, tr, call, got, first)
					}
				}
				if tr == allTied && first != plan.Order(tr.NonRoot()).String() {
					t.Errorf("%v %v on an all-tied star: %s, want ascending NodeID", name, s, first)
				}
			}
		}
	}
}

// TestPlanSearchAllocations: one search over all six strategies, as
// plan selection runs it per ad-hoc query, stays within a small
// allocation budget on the 3-2 snowflake. Prefix sets are values; when
// they were maps the same search took 14 148 allocations.
func TestPlanSearchAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	model := cost.New(plan.Snowflake(3, 2, plan.UniformStats(rng, 0.1, 0.9, 1, 8)), cost.DefaultWeights())
	allocs := testing.AllocsPerRun(10, func() {
		for _, s := range cost.AllStrategies {
			Optimize(model, s, Exhaustive)
		}
	})
	if allocs > 1400 {
		t.Errorf("six-strategy search on Snowflake(3,2): %.0f allocations, want at most 1400", allocs)
	}
}

// TestStarQueryAllHeuristicsOptimalCOM: for star queries the ASI
// property holds fully (Section 3.4), and ordering by survival equals
// ordering by match probability; the survival heuristic should match
// the exhaustive optimum.
func TestStarQueryAllHeuristicsOptimalCOM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		tr := plan.Star(3+rng.Intn(6), plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := cost.New(tr, cost.DefaultWeights())
		best := ExhaustiveDP(model, cost.COM).Cost.Total
		surv := Optimize(model, cost.COM, GreedySurvival).Cost.Total
		if !almostEqual(best, surv) {
			t.Fatalf("survival heuristic suboptimal on star: %v vs %v", surv, best)
		}
	}
}

// TestSingleRelationTree: degenerate case with only the driver.
func TestSingleRelationTree(t *testing.T) {
	tr := plan.NewTree("")
	model := cost.New(tr, cost.DefaultWeights())
	r := ExhaustiveDP(model, cost.COM)
	if len(r.Order) != 0 {
		t.Errorf("expected empty order, got %v", r.Order)
	}
}

// TestDPOnDeepPath: correctness on a long chain, where there is exactly
// one valid order.
func TestDPOnDeepPath(t *testing.T) {
	tr := plan.Path(10, plan.FixedStats(0.5, 3))
	model := cost.New(tr, cost.DefaultWeights())
	r := ExhaustiveDP(model, cost.COM)
	if !r.Order.Valid(tr) {
		t.Fatalf("invalid order")
	}
	for i, id := range r.Order {
		if int(id) != i+1 {
			t.Fatalf("path order should be the chain, got %v", r.Order)
		}
	}
}
