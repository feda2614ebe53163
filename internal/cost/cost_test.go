package cost

import (
	"math"
	"math/rand"
	"testing"

	"m2mjoin/internal/plan"
)

// runningExample builds the 6-relation query of Fig. 1 with symbolic
// statistics matching Section 3.3's worked derivation.
func runningExample() (*plan.Tree, map[string]plan.NodeID) {
	t := plan.NewTree("R1")
	ids := map[string]plan.NodeID{"R1": plan.Root}
	ids["R2"] = t.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: 3}, "R2")
	ids["R3"] = t.AddChild(ids["R2"], plan.EdgeStats{M: 0.4, Fo: 2}, "R3")
	ids["R4"] = t.AddChild(ids["R2"], plan.EdgeStats{M: 0.6, Fo: 2}, "R4")
	ids["R5"] = t.AddChild(plan.Root, plan.EdgeStats{M: 0.7, Fo: 2}, "R5")
	ids["R6"] = t.AddChild(ids["R5"], plan.EdgeStats{M: 0.8, Fo: 3}, "R6")
	return t, ids
}

func almostEqual(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}

// TestCOMProbesRunningExample reproduces Section 3.3's derivation for
// the plan R2, R3, R5, R4, R6 term by term.
func TestCOMProbesRunningExample(t *testing.T) {
	tr, ids := runningExample()
	m2, fo2 := tr.Stats(ids["R2"]).M, tr.Stats(ids["R2"]).Fo
	m3, fo3 := tr.Stats(ids["R3"]).M, tr.Stats(ids["R3"]).Fo
	m4 := tr.Stats(ids["R4"]).M
	m5, fo5 := tr.Stats(ids["R5"]).M, tr.Stats(ids["R5"]).Fo
	_ = fo3
	model := New(tr, DefaultWeights())

	done := plan.SetOf(plan.Root)
	// Probes into R2: first join, N probes (1 per driver tuple).
	if got := model.ProbesCOM(ids["R2"], done); !almostEqual(got, 1) {
		t.Errorf("probes R2 = %v, want 1", got)
	}
	done = done.With(ids["R2"])
	// Probes into R3: N * m2 * fo2.
	if got, want := model.ProbesCOM(ids["R3"], done), m2*fo2; !almostEqual(got, want) {
		t.Errorf("probes R3 = %v, want %v", got, want)
	}
	done = done.With(ids["R3"])
	// Probes into R5: m2 * (1 - (1-m3)^fo2)   [survival of {R2,R3}]
	want := m2 * (1 - math.Pow(1-m3, fo2))
	if got := model.ProbesCOM(ids["R5"], done); !almostEqual(got, want) {
		t.Errorf("probes R5 = %v, want %v", got, want)
	}
	done = done.With(ids["R5"])
	// Probes into R4: N * m2 * m5 * fo2 * m3.
	want = m2 * m5 * fo2 * m3
	if got := model.ProbesCOM(ids["R4"], done); !almostEqual(got, want) {
		t.Errorf("probes R4 = %v, want %v", got, want)
	}
	done = done.With(ids["R4"])
	// Probes into R6: m_{1,2,3,4} * m5 * fo5, where
	// m_{1,2,3,4} = m2 * (1 - (1 - m3*m4)^fo2).
	m1234 := m2 * (1 - math.Pow(1-m3*m4, fo2))
	want = m1234 * m5 * fo5
	if got := model.ProbesCOM(ids["R6"], done); !almostEqual(got, want) {
		t.Errorf("probes R6 = %v, want %v", got, want)
	}
}

// TestSTDCostRunningExample checks the standard-execution cost formula
// from Section 3.3 (the contrast expression).
func TestSTDCostRunningExample(t *testing.T) {
	tr, ids := runningExample()
	m2, fo2 := tr.Stats(ids["R2"]).M, tr.Stats(ids["R2"]).Fo
	m3, fo3 := tr.Stats(ids["R3"]).M, tr.Stats(ids["R3"]).Fo
	m5, fo5 := tr.Stats(ids["R5"]).M, tr.Stats(ids["R5"]).Fo
	m4, fo4 := tr.Stats(ids["R4"]).M, tr.Stats(ids["R4"]).Fo
	_ = fo4
	model := New(tr, DefaultWeights())

	o := plan.Order{ids["R2"], ids["R3"], ids["R5"], ids["R4"], ids["R6"]}
	got := model.Cost(STD, o, false).HashProbes
	want := 1 + m2*fo2 + m2*fo2*m3*fo3 + m2*fo2*m3*fo3*m5*fo5 +
		m2*fo2*m3*fo3*m5*fo5*m4*fo4
	if !almostEqual(got, want) {
		t.Errorf("STD probes = %v, want %v", got, want)
	}
}

// TestCOMEqualsSTDWhenFanoutOne: the paper notes the two cost
// expressions coincide when all fanouts are 1.
func TestCOMEqualsSTDWhenFanoutOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tr := plan.RandomTree(2+rng.Intn(8), rng, func() plan.EdgeStats {
			return plan.EdgeStats{M: 0.1 + rng.Float64()*0.8, Fo: 1}
		})
		model := New(tr, DefaultWeights())
		for _, o := range tr.AllOrders() {
			std := model.Cost(STD, o, false).HashProbes
			com := model.Cost(COM, o, false).HashProbes
			if !almostEqual(std, com) {
				t.Fatalf("fo=1 but STD %v != COM %v for %v on %v", std, com, o, tr)
			}
		}
	}
}

// TestCOMNeverWorseThanSTD: avoiding redundant probes can only reduce
// the probe count, for any order and statistics.
func TestCOMNeverWorseThanSTD(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		tr := plan.RandomTree(2+rng.Intn(7), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := New(tr, DefaultWeights())
		for _, o := range tr.AllOrders() {
			std := model.Cost(STD, o, false).HashProbes
			com := model.Cost(COM, o, false).HashProbes
			if com > std*(1+1e-9) {
				t.Fatalf("COM probes %v > STD probes %v for %v on %v", com, std, o, tr)
			}
		}
	}
}

// TestCOMOrderInvariantPrefix: Equation (1) does not depend on the
// order in which the prefix was joined, only on the set (the paper's
// observation below Eq. 1).
func TestCOMOrderInvariantPrefix(t *testing.T) {
	tr, ids := runningExample()
	model := New(tr, DefaultWeights())
	done1 := plan.SetOf(plan.Root, ids["R2"], ids["R3"], ids["R5"])
	p1 := model.ProbesCOM(ids["R4"], done1)
	// Same set, conceptually joined in different orders: the set is
	// identical so this checks the API contract rather than recomputing,
	// therefore also compare against full-cost sums over permutations
	// with equal prefixes.
	ordersA := plan.Order{ids["R2"], ids["R3"], ids["R5"], ids["R4"], ids["R6"]}
	ordersB := plan.Order{ids["R2"], ids["R5"], ids["R3"], ids["R4"], ids["R6"]}
	ordersC := plan.Order{ids["R5"], ids["R2"], ids["R3"], ids["R4"], ids["R6"]}
	costA := model.Cost(COM, ordersA, false).HashProbes
	costB := model.Cost(COM, ordersB, false).HashProbes
	costC := model.Cost(COM, ordersC, false).HashProbes
	// These differ in general (different probe counts for R3/R5), but
	// the marginal probes into R4 and R6 must agree since the joined
	// sets agree.
	done2 := plan.SetOf(plan.Root, ids["R2"], ids["R3"], ids["R5"])
	p2 := model.ProbesCOM(ids["R4"], done2)
	if !almostEqual(p1, p2) {
		t.Errorf("prefix-set marginal differs: %v vs %v", p1, p2)
	}
	_ = costA
	_ = costB
	_ = costC
}

// TestSurvivalTreeRecursion checks m_T against hand-computed values.
func TestSurvivalTreeRecursion(t *testing.T) {
	tr, ids := runningExample()
	model := New(tr, DefaultWeights())
	m2 := tr.Stats(ids["R2"]).M
	fo2 := tr.Stats(ids["R2"]).Fo
	m3 := tr.Stats(ids["R3"]).M
	m4 := tr.Stats(ids["R4"]).M

	in := plan.SetOf(plan.Root, ids["R2"])
	if got := model.SurvivalTree(plan.Root, in); !almostEqual(got, m2) {
		t.Errorf("m_{1,2} = %v, want %v", got, m2)
	}
	in = in.With(ids["R3"])
	want := m2 * (1 - math.Pow(1-m3, fo2))
	if got := model.SurvivalTree(plan.Root, in); !almostEqual(got, want) {
		t.Errorf("m_{1,2,3} = %v, want %v", got, want)
	}
	in = in.With(ids["R4"])
	want = m2 * (1 - math.Pow(1-m3*m4, fo2))
	if got := model.SurvivalTree(plan.Root, in); !almostEqual(got, want) {
		t.Errorf("m_{1,2,3,4} = %v, want %v", got, want)
	}
}

// TestSurvivalMonotone: adding operators can only lower survival.
func TestSurvivalMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 100; trial++ {
		tr := plan.RandomTree(2+rng.Intn(9), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := New(tr, DefaultWeights())
		done := plan.SetOf(plan.Root)
		prev := 1.0
		for done.Len() < tr.Len() {
			f := tr.Frontier(done).IDs()
			next := f[rng.Intn(len(f))]
			done = done.With(next)
			cur := model.SurvivalTree(plan.Root, done)
			if cur > prev*(1+1e-9) {
				t.Fatalf("survival increased from %v to %v after adding %d", prev, cur, next)
			}
			prev = cur
		}
	}
}

// TestASICounterexample reproduces the proof of Theorem 3.1: a
// 7-relation query where two orders that swap two symmetric operators
// (which must have equal ranks for any rank function) have different
// costs under the COM model, so no rank function can exist.
func TestASICounterexample(t *testing.T) {
	// R1 joins R2 and R3; R2 joins R4, R5; R3 joins R6, R7.
	// m_i = 0.5 for all i; fo_i = 1 except fo2 and fo3.
	build := func(fo2, fo3 float64) (*plan.Tree, map[string]plan.NodeID) {
		tr := plan.NewTree("R1")
		ids := map[string]plan.NodeID{}
		ids["R2"] = tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: fo2}, "R2")
		ids["R3"] = tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: fo3}, "R3")
		ids["R4"] = tr.AddChild(ids["R2"], plan.EdgeStats{M: 0.5, Fo: 1}, "R4")
		ids["R5"] = tr.AddChild(ids["R2"], plan.EdgeStats{M: 0.5, Fo: 1}, "R5")
		ids["R6"] = tr.AddChild(ids["R3"], plan.EdgeStats{M: 0.5, Fo: 1}, "R6")
		ids["R7"] = tr.AddChild(ids["R3"], plan.EdgeStats{M: 0.5, Fo: 1}, "R7")
		return tr, ids
	}
	tr, ids := build(4, 9)
	model := New(tr, DefaultWeights())
	// Orders differing only in U=R5 vs V=R6 swap, as in the proof.
	oUV := plan.Order{ids["R2"], ids["R3"], ids["R4"], ids["R7"], ids["R5"], ids["R6"]}
	oVU := plan.Order{ids["R2"], ids["R3"], ids["R4"], ids["R7"], ids["R6"], ids["R5"]}
	cUV := model.Cost(COM, oUV, false).HashProbes
	cVU := model.Cost(COM, oVU, false).HashProbes
	if almostEqual(cUV, cVU) {
		t.Fatalf("expected different costs for fo2 != fo3, got %v == %v", cUV, cVU)
	}
	// Which is cheaper must flip when fo2 and fo3 swap, contradicting
	// any fixed rank ordering between R5 and R6.
	tr2, ids2 := build(9, 4)
	model2 := New(tr2, DefaultWeights())
	oUV2 := plan.Order{ids2["R2"], ids2["R3"], ids2["R4"], ids2["R7"], ids2["R5"], ids2["R6"]}
	oVU2 := plan.Order{ids2["R2"], ids2["R3"], ids2["R4"], ids2["R7"], ids2["R6"], ids2["R5"]}
	cUV2 := model2.Cost(COM, oUV2, false).HashProbes
	cVU2 := model2.Cost(COM, oVU2, false).HashProbes
	if (cUV < cVU) == (cUV2 < cVU2) {
		t.Errorf("preference did not flip when swapping fo2/fo3: (%v,%v) vs (%v,%v)",
			cUV, cVU, cUV2, cVU2)
	}
}

// TestOutputTuples: product of m*fo over all joins.
func TestOutputTuples(t *testing.T) {
	tr, _ := runningExample()
	model := New(tr, DefaultWeights())
	want := 0.5 * 3 * 0.4 * 2 * 0.6 * 2 * 0.7 * 2 * 0.8 * 3
	if got := model.OutputTuples(); !almostEqual(got, want) {
		t.Errorf("OutputTuples = %v, want %v", got, want)
	}
}

// TestRelCard: relative cardinalities multiply down the path.
func TestRelCard(t *testing.T) {
	tr, ids := runningExample()
	model := New(tr, DefaultWeights())
	if got := model.RelCard(plan.Root); !almostEqual(got, 1) {
		t.Errorf("RelCard(root) = %v", got)
	}
	if got, want := model.RelCard(ids["R2"]), 0.5*3.0; !almostEqual(got, want) {
		t.Errorf("RelCard(R2) = %v, want %v", got, want)
	}
	if got, want := model.RelCard(ids["R6"]), 0.7*2*0.8*3; !almostEqual(got, want) {
		t.Errorf("RelCard(R6) = %v, want %v", got, want)
	}
}

// TestBVPReducesToBaseWhenEpsilonZero: with a perfect bitvector
// (epsilon = 0), BVP probes relate directly to the base model: the
// hash probes of BVP+COM with all filters exact equal the survival-
// filtered counts, and in the star case hash probes shrink to m-scaled
// streams. We verify the weaker, exact property that BVP hash probes
// are never more than the base model's and filter probes are positive.
func TestBVPReducesToBaseWhenEpsilonZero(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := DefaultWeights()
	w.Epsilon = 0
	for trial := 0; trial < 60; trial++ {
		tr := plan.RandomTree(2+rng.Intn(7), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := New(tr, w)
		for _, o := range tr.AllOrders()[:1] {
			stdC := model.Cost(STD, o, false)
			bvpStd := model.Cost(BVPSTD, o, false)
			if bvpStd.HashProbes > stdC.HashProbes*(1+1e-9) {
				t.Fatalf("BVP+STD hash probes %v > STD %v", bvpStd.HashProbes, stdC.HashProbes)
			}
			comC := model.Cost(COM, o, false)
			bvpCom := model.Cost(BVPCOM, o, false)
			if bvpCom.HashProbes > comC.HashProbes*(1+1e-9) {
				t.Fatalf("BVP+COM hash probes %v > COM %v", bvpCom.HashProbes, comC.HashProbes)
			}
			if bvpStd.FilterProbes <= 0 || bvpCom.FilterProbes <= 0 {
				t.Fatalf("BVP should count filter probes")
			}
		}
	}
}

// TestPassFactorIsAProbability: a bitvector passes a row with
// probability m+ε only while that is at most 1. On R1(R2(R3),R4) with
// M3 = 1 and Fo2 = 2.5, order R2 R4 R3, the uncapped sum made the
// survival of R2 raise a negative base to a fractional fanout, and
// Cost(BVP+COM) was NaN; capped, a filter that passes everything is a
// filter that prunes nothing.
func TestPassFactorIsAProbability(t *testing.T) {
	tr := plan.NewTree("R1")
	r2 := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.3, Fo: 2.5}, "R2")
	r3 := tr.AddChild(r2, plan.EdgeStats{M: 1, Fo: 2}, "R3")
	r4 := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 1}, "R4")
	model := New(tr, DefaultWeights())
	o := plan.Order{r2, r4, r3}
	com := model.Cost(COM, o, false)
	for _, s := range []Strategy{BVPSTD, BVPCOM} {
		got := model.Cost(s, o, false)
		for name, x := range map[string]float64{"hash": got.HashProbes, "filter": got.FilterProbes, "total": got.Total} {
			if !(x > 0) || math.IsInf(x, 0) {
				t.Errorf("%v %s probes = %v, want a positive number", s, name, x)
			}
		}
	}
	if got := model.Cost(BVPCOM, o, false).HashProbes; got > com.HashProbes {
		t.Errorf("BVP+COM hash probes %v > COM's %v", got, com.HashProbes)
	}
}

// TestBVPSTDPaperFormula reproduces the Section 3.5 bitvector- and
// hashtable-probe expressions for the running example with order
// R2, R3, R5, R4, R6 symbolically.
func TestBVPSTDPaperFormula(t *testing.T) {
	tr, ids := runningExample()
	w := DefaultWeights()
	w.Epsilon = 0.03
	eps := w.Epsilon
	model := New(tr, w)
	m2, fo2 := tr.Stats(ids["R2"]).M, tr.Stats(ids["R2"]).Fo
	m3, fo3 := tr.Stats(ids["R3"]).M, tr.Stats(ids["R3"]).Fo
	m4, fo4 := tr.Stats(ids["R4"]).M, tr.Stats(ids["R4"]).Fo
	m5, fo5 := tr.Stats(ids["R5"]).M, tr.Stats(ids["R5"]).Fo
	m6 := tr.Stats(ids["R6"]).M
	_ = m6

	o := plan.Order{ids["R2"], ids["R3"], ids["R5"], ids["R4"], ids["R6"]}
	got := model.Cost(BVPSTD, o, false)

	wantFilter := 1 + (m2 + eps) + // BV(R2), BV(R5) on the driver
		m2*(m5+eps)*fo2 + // BV(R3) on R2's output
		m2*(m5+eps)*fo2*(m3+eps) + // BV(R4)
		m2*m5*fo2*m3*(m4+eps)*fo3*fo5 // BV(R6) on R5's output
	if !almostEqual(got.FilterProbes, wantFilter) {
		t.Errorf("BVP+STD filter probes = %v, want %v", got.FilterProbes, wantFilter)
	}

	wantHash := (m2+eps)*(m5+eps) + // probe R2
		m2*(m5+eps)*fo2*(m3+eps)*(m4+eps) + // probe R3
		m2*(m5+eps)*fo2*m3*(m4+eps)*fo3 + // probe R5
		m2*m5*fo2*m3*(m4+eps)*fo3*fo5*(m6+eps) + // probe R4
		m2*fo2*m3*fo3*m4*fo4*m5*fo5*(m6+eps) // probe R6
	if !almostEqual(got.HashProbes, wantHash) {
		t.Errorf("BVP+STD hash probes = %v, want %v", got.HashProbes, wantHash)
	}
}

// TestBVPCOMPaperR5Example reproduces the Section 3.5 formula for the
// probes into R5 under BVP+COM: N*m2*(m5+eps)*(1-(1-m3*(m4+eps))^fo2).
func TestBVPCOMPaperR5Example(t *testing.T) {
	tr, ids := runningExample()
	w := DefaultWeights()
	w.Epsilon = 0.03
	eps := w.Epsilon
	model := New(tr, w)
	m2, fo2 := tr.Stats(ids["R2"]).M, tr.Stats(ids["R2"]).Fo
	m3 := tr.Stats(ids["R3"]).M
	m4 := tr.Stats(ids["R4"]).M
	m5 := tr.Stats(ids["R5"]).M

	set := plan.SetOf(plan.Root, ids["R2"], ids["R3"])
	got := model.views[Bitvector].levelCount(plan.Root, set, tr.Frontier(set))
	want := m2 * (m5 + eps) * (1 - math.Pow(1-m3*(m4+eps), fo2))
	if !almostEqual(got, want) {
		t.Errorf("BVP+COM probes into R5 = %v, want %v", got, want)
	}
}

// TestAdjustedStatsIdentity: s' = m'*fo' = ratio * m * fo (Thm 3.4).
func TestAdjustedStatsIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 500; trial++ {
		st := plan.EdgeStats{M: 0.05 + rng.Float64()*0.9, Fo: 1 + rng.Float64()*20}
		ratio := rng.Float64()
		if ratio == 0 {
			continue
		}
		adj := AdjustedStats(st, ratio)
		if !almostEqual(adj.M*adj.Fo, ratio*st.M*st.Fo) {
			t.Fatalf("s' = %v, want ratio*s = %v", adj.M*adj.Fo, ratio*st.M*st.Fo)
		}
		if adj.M > st.M*(1+1e-9) {
			t.Fatalf("m' %v > m %v", adj.M, st.M)
		}
		if adj.Fo > st.Fo*(1+1e-9) {
			t.Fatalf("fo' %v > fo %v", adj.Fo, st.Fo)
		}
	}
}

// TestAdjustedMatchFanoutMonteCarlo validates Theorem 3.4 against
// simulation: tuples with fo integer matches, each match surviving
// independently with probability ratio.
func TestAdjustedMatchFanoutMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	const trials = 400000
	for _, tc := range []struct {
		m, fo, ratio float64
	}{
		{0.6, 4, 0.5},
		{0.9, 2, 0.25},
		{0.3, 7, 0.8},
	} {
		matched := 0
		totalMatches := 0
		for i := 0; i < trials; i++ {
			if rng.Float64() >= tc.m {
				continue // no match at all
			}
			// fo matches, each survives with prob ratio.
			k := 0
			for j := 0; j < int(tc.fo); j++ {
				if rng.Float64() < tc.ratio {
					k++
				}
			}
			if k > 0 {
				matched++
				totalMatches += k
			}
		}
		gotM := float64(matched) / trials
		gotFo := float64(totalMatches) / float64(matched)
		adj := AdjustedStats(plan.EdgeStats{M: tc.m, Fo: tc.fo}, tc.ratio)
		if math.Abs(gotM-adj.M) > 0.01 {
			t.Errorf("m=%v fo=%v ratio=%v: m' sim %v vs formula %v", tc.m, tc.fo, tc.ratio, gotM, adj.M)
		}
		if math.Abs(gotFo-adj.Fo)/adj.Fo > 0.02 {
			t.Errorf("m=%v fo=%v ratio=%v: fo' sim %v vs formula %v", tc.m, tc.fo, tc.ratio, gotFo, adj.Fo)
		}
	}
}

// TestSJCOMOrderIndependence verifies Theorem 3.5: with full reduction
// and factorized execution, the phase-2 cost is identical for every
// valid join order.
func TestSJCOMOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		tr := plan.RandomTree(2+rng.Intn(7), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := New(tr, DefaultWeights())
		orders := tr.AllOrders()
		base := model.Cost(SJCOM, orders[0], false).Total
		for _, o := range orders[1:] {
			if got := model.Cost(SJCOM, o, false).Total; !almostEqual(got, base) {
				t.Fatalf("SJ+COM cost differs across orders: %v vs %v on %v", got, base, tr)
			}
		}
	}
}

// TestSJPhase1RunningExample reproduces the Section 3.6 phase-1 probe
// count for the running example:
// |R2| + m3|R2| + |R5| + |R1| + (1-(1-m3 m4)^fo2) m2 |R1|.
func TestSJPhase1RunningExample(t *testing.T) {
	tr, ids := runningExample()
	model := New(tr, DefaultWeights())
	m2, fo2 := tr.Stats(ids["R2"]).M, tr.Stats(ids["R2"]).Fo
	m3 := tr.Stats(ids["R3"]).M
	m4 := tr.Stats(ids["R4"]).M
	m5, fo5 := tr.Stats(ids["R5"]).M, tr.Stats(ids["R5"]).Fo
	_ = fo5

	r2 := model.RelCard(ids["R2"])
	r5 := model.RelCard(ids["R5"])

	// R2 semi-joins children in increasing m' order; here m3=0.4 < m4=0.6
	// so R3 first: |R2| + m3|R2|. R5 semi-joins R6: |R5|. Root semi-joins
	// R2 then R5 (m'_{1->2} vs m'_{1->5}): the order is by adjusted m'.
	m12 := m2 * (1 - math.Pow(1-m3*m4, fo2))
	m15 := m5 // R6 leaf: ratio(R5 child R6)=... R5's child R6 is a leaf so m'_{5->6}=m6
	m6 := tr.Stats(ids["R6"]).M
	_ = m15
	// ratio(R5) = m'_{5->6} = m6; m'_{1->5} = m5*(1-(1-m6)^fo5).
	m15 = m5 * (1 - math.Pow(1-m6, tr.Stats(ids["R5"]).Fo))

	want := r2 + m3*r2 + r5 + 1.0
	if m12 < m15 {
		want += m12 // second root semi-join probes survivors of first
	} else {
		want += m15
	}
	if got := model.Phase1Probes(); !almostEqual(got, want) {
		t.Errorf("Phase1Probes = %v, want %v", got, want)
	}
}

// TestSJOutputPreserved: the reduction must not change the expected
// output size: reduced driver * product of adjusted fanouts equals the
// product of m*fo over all edges.
func TestSJOutputPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 100; trial++ {
		tr := plan.RandomTree(2+rng.Intn(9), rng,
			plan.UniformStats(rng, 0.05, 0.95, 1, 10))
		model := New(tr, DefaultWeights())
		out := model.ReductionRatio(plan.Root)
		for _, id := range tr.NonRoot() {
			out *= AdjustedStats(tr.Stats(id), model.ReductionRatio(id)).Fo
		}
		if want := model.OutputTuples(); !almostEqual(out, want) {
			t.Fatalf("SJ output %v != direct output %v on %v", out, want, tr)
		}
	}
}

// TestStrategyString covers the Stringer.
func TestStrategyString(t *testing.T) {
	want := map[Strategy]string{
		STD: "STD", COM: "COM", BVPSTD: "BVP+STD",
		BVPCOM: "BVP+COM", SJSTD: "SJ+STD", SJCOM: "SJ+COM",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), name)
		}
	}
	if Strategy(99).String() != "unknown" {
		t.Errorf("out-of-range strategy should be unknown")
	}
}

// TestCostDispatch ensures Cost routes to each specialized function.
func TestCostDispatch(t *testing.T) {
	tr, ids := runningExample()
	model := New(tr, DefaultWeights())
	o := plan.Order{ids["R2"], ids["R3"], ids["R5"], ids["R4"], ids["R6"]}
	for _, s := range AllStrategies {
		pc := model.Cost(s, o, true)
		if pc.Strategy != s {
			t.Errorf("Cost(%v) tagged %v", s, pc.Strategy)
		}
		if pc.Total <= 0 {
			t.Errorf("Cost(%v) = %v, want positive", s, pc.Total)
		}
	}
}

// TestFlatOutputAddsExpansion: flat output must strictly increase COM
// variants' totals by Expand * OutputTuples.
func TestFlatOutputAddsExpansion(t *testing.T) {
	tr, ids := runningExample()
	w := DefaultWeights()
	model := New(tr, w)
	o := plan.Order{ids["R2"], ids["R3"], ids["R5"], ids["R4"], ids["R6"]}
	for _, s := range []Strategy{COM, BVPCOM, SJCOM} {
		flat := model.Cost(s, o, true)
		fact := model.Cost(s, o, false)
		wantDelta := w.Expand * model.OutputTuples()
		if !almostEqual(flat.Total-fact.Total, wantDelta) {
			t.Errorf("%v: expansion delta = %v, want %v", s, flat.Total-fact.Total, wantDelta)
		}
	}
}
