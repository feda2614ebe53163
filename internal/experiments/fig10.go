package experiments

import (
	"math/rand"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
)

// fig10 reproduces the join-order optimization comparison of Section
// 5.1: random join trees (root with 2-5 children, other nodes 0-3,
// fanouts in [1,10]) across four match-probability ranges, comparing
// the three greedy heuristics against the exhaustive algorithm. The
// reported metric is the ratio of each heuristic's plan cost to the
// exhaustive optimum under the COM cost model.
func fig10(scale Scale, seed int64, _ int) *Table {
	maxNodes, samples := 20, 100
	if scale == Quick {
		maxNodes, samples = 12, 25
	}
	algs := []opt.Algorithm{opt.RankOrdering, opt.GreedyResultSize, opt.GreedySurvival}

	t := &Table{
		Title:   "Fig 10: heuristic plan cost / exhaustive optimal cost (COM model)",
		Labels:  []string{"m range", "algorithm"},
		Columns: columns("", "median", "p-max", "mean"),
		Notes: []string{
			"paper: survival probability is closest to optimal across all ranges; rank ordering is worst, sometimes by orders of magnitude",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, mr := range [][2]float64{{0.05, 0.2}, {0.05, 0.5}, {0.1, 0.5}, {0.5, 0.9}} {
		ratios := make([][]float64, len(algs))
		for trial := 0; trial < samples; trial++ {
			n := 5 + rng.Intn(maxNodes-4)
			tr := plan.RandomTree(n, rng, plan.UniformStats(rng, mr[0], mr[1], 1, 10))
			model := cost.New(tr, cost.DefaultWeights())
			best := opt.ExhaustiveDP(model, cost.COM).Cost.Total
			for i, a := range algs {
				ratios[i] = append(ratios[i], opt.Optimize(model, cost.COM, a).Cost.Total/best)
			}
		}
		for i, a := range algs {
			_, med, hi := quartiles(ratios[i])
			t.add([]string{rangeLabel(mr[0], mr[1]), a.String()}, med, hi, mean(ratios[i]))
		}
	}
	return t
}
