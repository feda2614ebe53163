package experiments

import (
	"fmt"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
)

// Fig13 reproduces the analytic simulation of Section 5.4: identical
// relations (same match probability m and fanout fo on every edge),
// sweeping m for fo in {2, 5}, and comparing the estimated best cost
// of the five approaches (STD omitted, as in the paper, because its
// costs distort the scale) for the four query shapes. Costs are per
// driver tuple, using the paper's probe weights (bitvector/semi-join
// probe = 1/2 hash probe, tuple expansion = 1/14).
func Fig13(scale Scale, seed int64) *Table {
	ms := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	if scale == Full {
		ms = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	}
	fos := []float64{2, 5}
	strategies := []cost.Strategy{cost.BVPSTD, cost.SJSTD, cost.COM, cost.BVPCOM, cost.SJCOM}

	t := &Table{
		Title:  "Fig 13: estimated best cost per driver tuple (flat output, identical relations)",
		Header: []string{"query", "fo", "m", "BVP+STD", "SJ+STD", "COM", "BVP+COM", "SJ+COM"},
	}
	for _, sh := range shapes {
		for _, fo := range fos {
			for _, m := range ms {
				tr := sh.build(plan.FixedStats(m, fo))
				model := cost.New(tr, cost.DefaultWeights())
				row := []string{sh.name, fmt.Sprintf("%g", fo), fmt.Sprintf("%.1f", m)}
				alg := opt.Exhaustive
				if tr.Len() > 14 {
					alg = opt.GreedySurvival
				}
				for _, s := range strategies {
					row = append(row, fmtF(opt.Optimize(model, s, alg).Cost.Total))
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	t.Notes = append(t.Notes,
		"paper: STD variants are competitive at low m; the gap to COM grows rapidly with m, especially at high fanout",
		"paper: BVP+COM wins at low m (bloom filters prune early); plain COM wins at high m (filters stop helping)")
	return t
}
