package cost_test

import (
	"math"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
)

// fuzzCase decodes fuzz bytes into a model over a tree of 2..12
// relations with per-relation probe costs, a strategy, whether the
// output is flat, and a valid order. Every byte string decodes to a
// valid case; bytes past the end read as zero. The statistics cover the
// model's whole domain: ε in [0, 0.1], M in [0, 1] with both ends
// (plan.Tree has no edge that never matches, so 0 is the smallest
// positive float), Fo >= 1.
func fuzzCase(data []byte) (*cost.Model, cost.Strategy, bool, plan.Order) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 2 + next()%11
	w := cost.DefaultWeights()
	w.Epsilon = float64(next()%11) / 100
	tr := plan.NewTree("")
	costs := make(map[plan.NodeID]float64)
	for i := 1; i < n; i++ {
		parent := plan.NodeID(next() % i)
		st := plan.EdgeStats{M: float64((1+next())%101) / 100, Fo: 1 + float64(next()%64)/4}
		if st.M == 0 {
			st.M = math.SmallestNonzeroFloat64
		}
		costs[tr.AddChild(parent, st, "")] = float64(1+next()%32) / 4
	}
	s, flat := cost.AllStrategies[next()%len(cost.AllStrategies)], next()%2 == 1
	var o plan.Order
	for done := plan.SetOf(plan.Root); len(o) < n-1; done = done.With(o[len(o)-1]) {
		f := tr.Frontier(done).IDs()
		o = append(o, f[next()%len(f)])
	}
	return cost.NewWithProbeCosts(tr, w, costs), s, flat, o
}

// FuzzCostModel checks, on generated cases over the whole domain, what
// no choice of statistics may break: every strategy's marginals and
// cost components are finite and non-negative; the marginal into a
// prefix does not depend on how the prefix set was put together; a
// filter or a factorized representation never adds hash probes (BVP
// against its base strategy, COM against STD, for the same order); the
// full reduction of a tree that has nothing to reduce changes no hash
// probe; and no order beats the exhaustive search.
func FuzzCostModel(f *testing.F) {
	// The running example of Section 3 under each strategy (order
	// R2 R3 R5 R4 R6, unit probe costs), and a path with expensive probes.
	running := []byte{4, 1, 0, 49, 8, 3, 1, 39, 4, 3, 1, 59, 4, 3, 0, 69, 4, 3, 4, 79, 8, 3}
	for s := range cost.AllStrategies {
		f.Add(append(append([]byte(nil), running...), byte(s), 1, 0, 0, 1, 0, 0))
	}
	f.Add([]byte{2, 3, 0, 29, 12, 31, 1, 89, 0, 0, 2, 9, 40, 15, 3, 0})
	// SJ+STD down a 12-chain of m = 0.01: the reduction ratio falls
	// below what 1-ratio can hold, which used to make the cost NaN.
	deep := []byte{10, 1}
	for parent := byte(0); parent < 11; parent++ {
		deep = append(deep, parent, 0, 0, 3)
	}
	f.Add(append(deep, 4))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, chosen, flat, o := fuzzCase(data)
		tr := m.Tree()
		sane := func(s cost.Strategy, what string, x float64) {
			if !(x >= 0) || math.IsInf(x, 0) {
				t.Fatalf("%s of %v order %v on %v (eps %v) = %v", what, s, o, tr, m.Weights().Epsilon, x)
			}
		}
		allOnes := true
		for _, id := range tr.NonRoot() {
			allOnes = allOnes && tr.Stats(id).M == 1
		}
		hash := map[cost.Strategy]float64{}
		for _, s := range cost.AllStrategies {
			set := plan.SetOf(plan.Root)
			for _, id := range o {
				step := m.Marginal(s, id, set)
				sane(s, "Marginal", step)
				rebuilt := plan.SetOf(plan.Root) // the same prefix, last join first
				for k := set.Len() - 2; k >= 0; k-- {
					rebuilt = rebuilt.With(o[k])
				}
				if again := m.Marginal(s, id, rebuilt); again != step {
					t.Fatalf("%v into %d after %v: %v, then %v for the same set", s, id, set.IDs(), step, again)
				}
				set = set.With(id)
			}
			pc := m.Cost(s, o, flat)
			sane(s, "HashProbes", pc.HashProbes)
			sane(s, "FilterProbes", pc.FilterProbes)
			sane(s, "ExpandedTuples", pc.ExpandedTuples)
			sane(s, "Total", pc.Total)
			hash[s] = pc.HashProbes
		}
		best := opt.ExhaustiveDP(m, chosen)
		if got := m.Cost(chosen, o, true).Total; got < best.Cost.Total*(1-1e-9) {
			t.Fatalf("%v order %v on %v costs %v, below the exhaustive search's %v at %v", chosen, o, tr, got, best.Cost.Total, best.Order)
		}
		for _, fewer := range [][2]cost.Strategy{{cost.BVPSTD, cost.STD}, {cost.BVPCOM, cost.COM}, {cost.COM, cost.STD}} {
			if hash[fewer[0]] > hash[fewer[1]]*(1+1e-9) {
				t.Fatalf("order %v on %v: %v hash probes %v > %v's %v", o, tr, fewer[0], hash[fewer[0]], fewer[1], hash[fewer[1]])
			}
		}
		if allOnes && (hash[cost.SJSTD] != hash[cost.STD] || hash[cost.SJCOM] != hash[cost.COM]) {
			t.Fatalf("every M is 1 on %v, yet SJ hash probes %v, %v differ from the base strategies' %v, %v",
				tr, hash[cost.SJSTD], hash[cost.SJCOM], hash[cost.STD], hash[cost.COM])
		}
	})
}
