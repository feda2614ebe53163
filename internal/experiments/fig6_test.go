package experiments

import (
	"math"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
)

func TestThetaLimits(t *testing.T) {
	// theta -> 1 as smin -> 0 (only the first probe matters).
	if got := ThetaSTD(1e-12, 10); math.Abs(got-1) > 1e-6 {
		t.Errorf("theta at smin~0 = %v, want ~1", got)
	}
	// theta -> n-1 as smin -> 1.
	if got := ThetaSTD(1, 10); math.Abs(got-9) > 1e-9 {
		t.Errorf("theta at smin=1 = %v, want 9", got)
	}
	// Monotone in smin.
	prev := 0.0
	for s := 0.1; s < 1; s += 0.1 {
		cur := ThetaSTD(s, 10)
		if cur <= prev {
			t.Fatalf("theta not increasing at %v", s)
		}
		prev = cur
	}
}

func TestThetaCOMSmallerThanSTD(t *testing.T) {
	// m <= s always (fo >= 1), and theta is increasing, so the COM
	// bound is never larger.
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		m := 0.05 + rng.Float64()*0.9
		fo := 1 + rng.Float64()*10
		s := math.Min(m*fo, 1) // spread bounds use capped selectivity
		n := 3 + rng.Intn(10)
		if ThetaCOM(m, n) > ThetaSTD(s, n)+1e-9 {
			t.Fatalf("thetaCOM(%v) > thetaSTD(%v) for n=%d", m, s, n)
		}
	}
}

func TestBigThetaUpperBoundsEmpiricalDeviation(t *testing.T) {
	// For star queries under STD, the normalized worst-best spread must
	// not exceed BigThetaSTD (the bound's derivation in Section 3.7).
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5) // relations including driver
		sMin, sMax := math.Inf(1), math.Inf(-1)
		tr := plan.Star(n-1, func() plan.EdgeStats {
			m := 0.1 + rng.Float64()*0.8
			fo := 1 + rng.Float64()*3
			s := m * fo
			if s < sMin {
				sMin = s
			}
			if s > sMax {
				sMax = s
			}
			return plan.EdgeStats{M: m, Fo: fo}
		})
		model := cost.New(tr, cost.DefaultWeights())
		dev := MaxDeviation(model, cost.STD, sMax-sMin)
		bound := BigThetaSTD(sMin, sMax, n)
		if dev > bound*(1+1e-9) {
			t.Fatalf("n=%d: deviation %v exceeds bound %v", n, dev, bound)
		}
	}
}

func TestBigThetaCOMBoundsEmpiricalDeviation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 3 + rng.Intn(5)
		mMin, mMax := math.Inf(1), math.Inf(-1)
		tr := plan.Star(n-1, func() plan.EdgeStats {
			m := 0.1 + rng.Float64()*0.8
			if m < mMin {
				mMin = m
			}
			if m > mMax {
				mMax = m
			}
			return plan.EdgeStats{M: m, Fo: 1 + rng.Float64()*9}
		})
		model := cost.New(tr, cost.DefaultWeights())
		dev := MaxDeviation(model, cost.COM, mMax-mMin)
		bound := BigThetaCOM(mMin, mMax, n)
		if dev > bound*(1+1e-9) {
			t.Fatalf("n=%d: COM deviation %v exceeds bound %v", n, dev, bound)
		}
	}
}

func TestCOMPlanSpaceNarrowerThanSTD(t *testing.T) {
	// The core robustness claim: accounting for repeated probes narrows
	// the spread between best and worst plans. Compare raw (un-
	// normalized) spreads on identical star queries with real fanouts.
	rng := rand.New(rand.NewSource(4))
	narrower := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		tr := plan.Star(5, func() plan.EdgeStats {
			return plan.EdgeStats{M: 0.1 + rng.Float64()*0.5, Fo: 2 + rng.Float64()*8}
		})
		model := cost.New(tr, cost.DefaultWeights())
		stdSpread := MaxDeviation(model, cost.STD, 1)
		comSpread := MaxDeviation(model, cost.COM, 1)
		if comSpread <= stdSpread {
			narrower++
		}
	}
	if narrower < trials*9/10 {
		t.Errorf("COM plan space narrower in only %d/%d trials", narrower, trials)
	}
}

func TestDegenerateSpread(t *testing.T) {
	// Equal statistics: zero spread; MaxDeviation must return 0 and the
	// bounds their analytic limits.
	tr := plan.Star(4, plan.FixedStats(0.5, 2))
	model := cost.New(tr, cost.DefaultWeights())
	if dev := MaxDeviation(model, cost.STD, 0); dev != 0 {
		t.Errorf("deviation with zero spread = %v", dev)
	}
	if b := BigThetaSTD(0.5, 0.5, 5); b <= 0 {
		t.Errorf("limit bound should be positive, got %v", b)
	}
}

func TestPerturbLowVsHighError(t *testing.T) {
	base := PerturbConfig{
		Relations: 8,
		MRange:    StatRange{0.05, 0.2},
		FoRange:   StatRange{1, 10},
		Samples:   40,
		Seed:      7,
	}
	low := base
	low.ErrRange = StatRange{0.15, 0.20}
	high := base
	high.ErrRange = StatRange{0.90, 0.95}

	lowRes := Perturb(low)
	highRes := Perturb(high)

	// Regressions are nonnegative by construction.
	for _, v := range []float64{lowRes.MeanPctSTD, lowRes.MeanPctCOM, highRes.MeanPctSTD, highRes.MeanPctCOM} {
		if v < 0 {
			t.Fatalf("negative regression %v", v)
		}
	}
	// Higher estimation error must hurt at least as much on average
	// under the selectivity model (the paper's top-vs-bottom contrast).
	if highRes.MeanPctSTD < lowRes.MeanPctSTD {
		t.Errorf("high error STD regression %v < low error %v", highRes.MeanPctSTD, lowRes.MeanPctSTD)
	}
}

func TestPerturbCOMMoreRobustUnderHighFanout(t *testing.T) {
	// Fig. 6's message: with large fanouts and high estimation error,
	// the selectivity-based model mis-ranks plans far more than the
	// match-probability model.
	cfg := PerturbConfig{
		Relations: 8,
		MRange:    StatRange{0.05, 0.2},
		FoRange:   StatRange{10, 100},
		ErrRange:  StatRange{0.90, 0.95},
		Samples:   60,
		Seed:      11,
	}
	res := Perturb(cfg)
	if res.MeanPctCOM > res.MeanPctSTD {
		t.Errorf("COM regression %v%% should not exceed STD regression %v%% under high fanout",
			res.MeanPctCOM, res.MeanPctSTD)
	}
}

func TestGeometricSum(t *testing.T) {
	if got := geometricSum(0.5, 3); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("geometricSum(0.5,3) = %v", got)
	}
	if got := geometricSum(1, 4); got != 4 {
		t.Errorf("geometricSum(1,4) = %v", got)
	}
	if got := geometricSum(0.5, 0); got != 0 {
		t.Errorf("geometricSum(.,0) = %v", got)
	}
}
