package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"m2mjoin/internal/plan"
)

// treeFromSeed derives a random tree and model deterministically from
// quick-generated inputs.
func treeFromSeed(seed int64, size uint8, mLo, mHi float64) (*plan.Tree, *Model) {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + int(size%7)
	tr := plan.RandomTree(n, rng, plan.UniformStats(rng, mLo, mHi, 1, 8))
	return tr, New(tr, DefaultWeights())
}

// TestQuickSurvivalInUnitInterval: m_T is a probability for every
// connected prefix of every random tree.
func TestQuickSurvivalInUnitInterval(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		tr, m := treeFromSeed(seed, size, 0.05, 0.95)
		done := plan.SetOf(plan.Root)
		rng := rand.New(rand.NewSource(seed ^ 0x5555))
		for done.Len() < tr.Len() {
			fr := tr.Frontier(done).IDs()
			done = done.With(fr[rng.Intn(len(fr))])
			s := m.SurvivalTree(plan.Root, done)
			if s < 0 || s > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSurvivalBoundedByMinEdge: the survival probability of a
// prefix never exceeds the smallest match probability among the edges
// on any root-to-leaf requirement... specifically it is at most the
// match probability of any single included child of the root.
func TestQuickSurvivalBoundedByMinEdge(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		tr, m := treeFromSeed(seed, size, 0.05, 0.95)
		done := plan.SetOf(plan.Root)
		for _, id := range tr.NonRoot() {
			done = done.With(id)
		}
		s := m.SurvivalTree(plan.Root, done)
		for _, c := range tr.Children(plan.Root) {
			if s > tr.Stats(c).M+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickProbesCOMAtMostExpandedStream: Eq. (1) never exceeds the
// standard model's fully expanded stream for the same prefix.
func TestQuickProbesCOMAtMostExpandedStream(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		tr, m := treeFromSeed(seed, size, 0.05, 0.95)
		rng := rand.New(rand.NewSource(seed ^ 0x7777))
		done := plan.SetOf(plan.Root)
		stream := 1.0
		for done.Len() < tr.Len() {
			fr := tr.Frontier(done).IDs()
			next := fr[rng.Intn(len(fr))]
			if m.ProbesCOM(next, done) > stream*(1+1e-9) {
				return false
			}
			st := tr.Stats(next)
			stream *= st.M * st.Fo
			done = done.With(next)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickAdjustedStatsSelectivity: Theorem 3.4's identity holds for
// arbitrary quick-generated parameters.
func TestQuickAdjustedStatsSelectivity(t *testing.T) {
	f := func(mRaw, foRaw, ratioRaw uint16) bool {
		m := 0.01 + 0.98*float64(mRaw)/65535
		fo := 1 + 30*float64(foRaw)/65535
		ratio := 0.01 + 0.98*float64(ratioRaw)/65535
		adj := AdjustedStats(plan.EdgeStats{M: m, Fo: fo}, ratio)
		want := ratio * m * fo
		return math.Abs(adj.M*adj.Fo-want) <= 1e-9*want &&
			adj.M <= m+1e-12 && adj.Fo <= fo+1e-12 && adj.Fo >= 1-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestQuickMarginalSetInvariance: the marginal cost of a candidate
// depends only on the joined set, never on the order the set was
// assembled in — the keystone of Algorithm 1 (and Theorem 3.3 for the
// BVP strategies). We reach the same set via two random orders and
// compare every frontier candidate's marginal under every strategy.
func TestQuickMarginalSetInvariance(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		tr, m := treeFromSeed(seed, size, 0.05, 0.95)
		if tr.Len() < 4 {
			return true
		}
		rng := rand.New(rand.NewSource(seed ^ 0x9999))
		// Assemble a random half-size connected set, then an equal set
		// built from its members (the point is the API takes only the
		// set, so this guards against future implementations sneaking in
		// order state), and check cross-strategy marginal consistency.
		target := 1 + tr.Len()/2
		set1 := plan.SetOf(plan.Root)
		for set1.Len() < target {
			fr := tr.Frontier(set1).IDs()
			set1 = set1.With(fr[rng.Intn(len(fr))])
		}
		set2 := plan.SetOf(set1.IDs()...)
		for _, cand := range tr.Frontier(set1).IDs() {
			for _, s := range AllStrategies {
				a := m.Marginal(s, cand, set1)
				b := m.Marginal(s, cand, set2)
				if math.Abs(a-b) > 1e-12*math.Max(a, 1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestMarginalIsAFunctionOfTheSet: equal sets, however they were
// assembled, give one float64 per strategy and candidate — the same
// bits, not the same value within a tolerance. With map-backed sets the
// products ran in map order and this snowflake showed up to six values
// per strategy.
func TestMarginalIsAFunctionOfTheSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.1, 0.9, 1, 8))
	m := New(tr, DefaultWeights())
	members := []plan.NodeID{plan.Root, 1, 2, 3, 4, 5, 7} // 6, 8 and 9 are the frontier
	for _, s := range AllStrategies {
		for _, cand := range []plan.NodeID{6, 8, 9} {
			want := m.Marginal(s, cand, plan.SetOf(members...))
			for call := 0; call < 200; call++ {
				rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
				if got := m.Marginal(s, cand, plan.SetOf(members...)); got != want {
					t.Fatalf("%v into %d: call %d gave %v, the first %v", s, cand, call, got, want)
				}
			}
		}
	}
}

// TestQuickSJPhase1Positive: phase-1 semi-join probes are positive and
// bounded by the total relative cardinality times the number of edges.
func TestQuickSJPhase1Positive(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		tr, m := treeFromSeed(seed, size, 0.05, 0.95)
		probes := m.Phase1Probes()
		if probes <= 0 {
			return false
		}
		bound := 0.0
		for i := 0; i < tr.Len(); i++ {
			bound += m.RelCard(plan.NodeID(i))
		}
		bound *= float64(tr.Len())
		return probes <= bound*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickCostsPositiveAndFinite: every strategy's cost is positive
// and finite on arbitrary random instances and orders.
func TestQuickCostsPositiveAndFinite(t *testing.T) {
	f := func(seed int64, size uint8, flat bool) bool {
		tr, m := treeFromSeed(seed, size, 0.02, 0.98)
		rng := rand.New(rand.NewSource(seed ^ 0x3333))
		done := plan.SetOf(plan.Root)
		var order plan.Order
		for len(order) < tr.Len()-1 {
			fr := tr.Frontier(done).IDs()
			next := fr[rng.Intn(len(fr))]
			order = append(order, next)
			done = done.With(next)
		}
		for _, s := range AllStrategies {
			pc := m.Cost(s, order, flat)
			if !(pc.Total > 0) || math.IsInf(pc.Total, 0) || math.IsNaN(pc.Total) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
