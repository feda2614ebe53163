package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
)

// fig6 reproduces the cost-model robustness simulation of Section 3.7:
// a 10-relation star query whose statistics are perturbed between
// optimization and execution. For each (match-probability range,
// fanout range, error range) cell it reports the mean percentage cost
// difference between the plan chosen from perturbed statistics and the
// true best plan, under the selectivity-based cost model and under the
// match-probability (COM) cost model. The rest of this file is that
// section's analysis: the theta-fragility / Theta-robustness bounds for
// star queries under both models, the plan-space deviation they bound,
// and the perturbation simulation itself.
func fig6(scale Scale, seed int64, _ int) *Table {
	relations, samples := 11, 100 // 10 dimensions + driver, as in the paper
	if scale == Quick {
		relations, samples = 8, 25
	}

	t := &Table{
		Title:   "Fig 6: % cost difference, estimated-best vs actual-best plan (10-rel star)",
		Labels:  []string{"est. error", "m range", "fo range"},
		Columns: columns("", "mean % (selectivity model)", "mean % (match-prob model)"),
		Notes: []string{
			"paper: the match-probability model is consistently more robust; the gap widens with error and fanout",
			"paper: at fo in [1-2] both models behave similarly (s is within 2x of m)",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, er := range []StatRange{{0.15, 0.20}, {0.90, 0.95}} {
		for _, mr := range []StatRange{{0.05, 0.2}, {0.5, 0.9}} {
			for _, fr := range []StatRange{{1, 2}, {1, 10}, {10, 100}} {
				res := Perturb(PerturbConfig{
					Relations: relations, MRange: mr, FoRange: fr, ErrRange: er,
					Samples: samples, Seed: rng.Int63(),
				})
				t.add([]string{rangeLabel(er.Lo, er.Hi), rangeLabel(mr.Lo, mr.Hi), fmt.Sprintf("[%g-%g]", fr.Lo, fr.Hi)},
					res.MeanPctSTD, res.MeanPctCOM)
			}
		}
	}
	return t
}

// geometricSum returns 1 + x + ... + x^(k-1) = (1 - x^k) / (1 - x).
func geometricSum(x float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	if math.Abs(1-x) < 1e-12 {
		return float64(k)
	}
	return (1 - math.Pow(x, float64(k))) / (1 - x)
}

// ThetaSTD returns the fragility lower bound of [Zhu et al. 2017] for
// a star query with n relations under the selectivity-based model:
// theta = (1 - smin^(n-1)) / (1 - smin).
func ThetaSTD(sMin float64, n int) float64 { return geometricSum(sMin, n-1) }

// BigThetaSTD returns the robustness upper bound derived in the paper
// for the selectivity-based model:
// Theta = sum_{i=1}^{n-2} (smax^i - smin^i) / (smax - smin).
func BigThetaSTD(sMin, sMax float64, n int) float64 {
	if sMax <= sMin {
		// Degenerate spread: the deviation itself is 0/0; the bound is
		// the limit sum of i * s^(i-1).
		var total float64
		for i := 1; i <= n-2; i++ {
			total += float64(i) * math.Pow(sMin, float64(i-1))
		}
		return total
	}
	var total float64
	for i := 1; i <= n-2; i++ {
		total += math.Pow(sMax, float64(i)) - math.Pow(sMin, float64(i))
	}
	return total / (sMax - sMin)
}

// ThetaCOM returns the paper's improved fragility bound under the
// match-probability model: theta = (1 - mmin^(n-1)) / (1 - mmin).
// Because m <= s = m*fo always, this is never larger than ThetaSTD
// evaluated at the corresponding selectivities.
func ThetaCOM(mMin float64, n int) float64 { return geometricSum(mMin, n-1) }

// BigThetaCOM returns the paper's robustness upper bound under the
// match-probability model.
func BigThetaCOM(mMin, mMax float64, n int) float64 {
	return BigThetaSTD(mMin, mMax, n)
}

// MaxDeviation measures the empirical plan-space spread of a star (or
// any) query under the given strategy: the difference between the
// worst and best plan cost per driver tuple, normalized by the spread
// (hi - lo) passed by the caller (selectivity spread for STD, match
// probability spread for COM, following Section 3.7). Exponential in
// the query size; intended for small analysis queries.
func MaxDeviation(m *cost.Model, s cost.Strategy, spread float64) float64 {
	best, worst := math.Inf(1), math.Inf(-1)
	for _, o := range m.Tree().AllOrders() {
		c := m.Cost(s, o, false).Total
		best, worst = min(best, c), max(worst, c)
	}
	if spread <= 0 {
		return 0
	}
	return (worst - best) / spread
}

// StatRange bounds a uniform parameter range.
type StatRange struct{ Lo, Hi float64 }

func (r StatRange) sample(rng *rand.Rand) float64 {
	return r.Lo + rng.Float64()*(r.Hi-r.Lo)
}

// PerturbConfig describes one cell of the Fig. 6 simulation.
type PerturbConfig struct {
	Relations int       // star size including the driver (paper: 10+1)
	MRange    StatRange // true match probabilities
	FoRange   StatRange // true fanouts
	ErrRange  StatRange // relative estimation error magnitude
	Samples   int       // independent trials
	Seed      int64
}

// PerturbResult aggregates the percentage cost difference between the
// plan chosen from estimated statistics and the true best plan, for
// both cost models.
type PerturbResult struct {
	// MeanPctSTD / MeanPctCOM are mean percentage regressions under
	// the selectivity-based and match-probability models respectively.
	MeanPctSTD float64
	MeanPctCOM float64
}

// Perturb runs the Fig. 6 simulation: draw true statistics for a star
// query, perturb them by a random relative error (random sign), find
// the best order under the perturbed statistics for each cost model,
// and measure how much worse that order is than the true optimum when
// evaluated with the true statistics under the same model.
func Perturb(cfg PerturbConfig) PerturbResult {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var res PerturbResult
	for trial := 0; trial < cfg.Samples; trial++ {
		truth := plan.Star(cfg.Relations-1, func() plan.EdgeStats {
			return plan.EdgeStats{M: cfg.MRange.sample(rng), Fo: cfg.FoRange.sample(rng)}
		})
		perturbed := plan.Rebuild(truth, func(_ plan.NodeID, st plan.EdgeStats) plan.EdgeStats {
			return plan.EdgeStats{
				M:  min(max(st.M*errFactor(rng, cfg.ErrRange), 1e-6), 1),
				Fo: max(st.Fo*errFactor(rng, cfg.ErrRange), 1),
			}
		})

		trueModel := cost.New(truth, cost.DefaultWeights())
		estModel := cost.New(perturbed, cost.DefaultWeights())

		// The selectivity-based model optimizes STD cost, the
		// match-probability model COM cost.
		res.MeanPctSTD += regressionPct(trueModel, estModel, cost.STD)
		res.MeanPctCOM += regressionPct(trueModel, estModel, cost.COM)
	}
	res.MeanPctSTD /= float64(cfg.Samples)
	res.MeanPctCOM /= float64(cfg.Samples)
	return res
}

// regressionPct returns the percentage cost increase of the plan
// chosen under estModel relative to the true optimum, both evaluated
// with trueModel under strategy s.
func regressionPct(trueModel, estModel *cost.Model, s cost.Strategy) float64 {
	bestTrue := opt.ExhaustiveDP(trueModel, s)
	bestEst := opt.ExhaustiveDP(estModel, s)
	actual := trueModel.Cost(s, bestEst.Order, false).Total
	optimal := trueModel.Cost(s, bestTrue.Order, false).Total
	if optimal <= 0 {
		return 0
	}
	return 100 * (actual - optimal) / optimal
}

// errFactor draws a multiplicative error 1 +/- e with e uniform in the
// range and a random sign.
func errFactor(rng *rand.Rand, r StatRange) float64 {
	e := r.sample(rng)
	if rng.Intn(2) == 0 {
		return 1 - e
	}
	return 1 + e
}
