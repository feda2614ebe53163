package experiments

import (
	"fmt"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
)

// fig13 reproduces the analytic simulation of Section 5.4: identical
// relations (same match probability m and fanout fo on every edge),
// sweeping m for fo in {2, 5}, and comparing the estimated best cost
// of the five approaches (STD omitted, as in the paper, because its
// costs distort the scale) for the paper's four query shapes at either
// scale. Costs are per driver tuple, using the paper's probe weights
// (bitvector/semi-join probe = 1/2 hash probe, tuple expansion = 1/14).
func fig13(scale Scale, _ int64, _ int) *Table {
	ms := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	if scale == Full {
		ms = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	strategies := []cost.Strategy{cost.BVPSTD, cost.SJSTD, cost.COM, cost.BVPCOM, cost.SJCOM}

	t := &Table{
		Title:   "Fig 13: estimated best cost per driver tuple (flat output, identical relations)",
		Labels:  []string{"query", "fo", "m"},
		Columns: strategyColumns("", strategies),
		Notes: []string{
			"paper: STD variants are competitive at low m; the gap to COM grows rapidly with m, especially at high fanout",
			"paper: BVP+COM wins at low m (bloom filters prune early); plain COM wins at high m (filters stop helping)",
		},
	}
	for _, sh := range shapes(Full) {
		for _, fo := range []float64{2, 5} {
			for _, m := range ms {
				model := cost.New(sh.build(plan.FixedStats(m, fo)), cost.DefaultWeights())
				var costs []float64
				for _, s := range strategies {
					costs = append(costs, opt.Optimize(model, s, opt.Exhaustive).Cost.Total)
				}
				t.add([]string{sh.name, fmt.Sprintf("%g", fo), fmt.Sprintf("%.1f", m)}, costs...)
			}
		}
	}
	return t
}
