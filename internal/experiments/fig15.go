package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// fig15 reproduces the constant-fanout-assumption study of Section
// 5.6: a 3-2 snowflake query whose per-tuple fanouts vary across
// tuples — truncated normal around mu=10 with growing variance, and
// exponential with growing mean skew — while the cost model only sees
// the measured mean fanout per edge. The reported metric is the ratio
// of actually counted hash probes to the model's estimate; the paper
// finds it stays near 1 even at high variance.
func fig15(scale Scale, seed int64, workers int) *Table {
	driverRows := 20000
	if scale == Quick {
		driverRows = 3000
	}

	type variant struct {
		label    string
		dist     workload.FanoutDist
		variance float64
	}
	var variants []variant
	for _, sigma := range []float64{0, 1, 2, 3, 4, 5} {
		variants = append(variants, variant{fmt.Sprintf("normal sigma=%g", sigma),
			workload.TruncNormal{Mu: 10, Sigma: sigma}, sigma * sigma})
	}
	for _, mean := range []float64{2, 5, 10, 20, 45} {
		variants = append(variants, variant{fmt.Sprintf("exponential mean=%g", mean),
			workload.Exponential{Mean_: mean}, (mean - 1) * (mean - 1)}) // Var of 1+Exp(mean-1)
	}

	rng := rand.New(rand.NewSource(seed))
	var cases []sweepCase
	for _, v := range variants {
		cases = append(cases, sweepCase{
			labels: []string{v.label},
			generate: func() *storage.Dataset {
				tr := plan.Snowflake(3, 2, plan.FixedStats(0.4, v.dist.Mean()))
				fanouts := make(map[plan.NodeID]workload.FanoutDist, tr.Len()-1)
				for _, id := range tr.NonRoot() {
					fanouts[id] = v.dist
				}
				return workload.Generate(tr, workload.Config{
					DriverRows: driverRows, Seed: rng.Int63(), Fanouts: fanouts})
			},
		})
	}
	points := sweep(cases, grid{strategies: []cost.Strategy{cost.COM}, flat: []bool{false}}, rng, scale, workers)

	t := &Table{
		Title:   "Fig 15: actual probes / estimated probes vs fanout variance (3-2 snowflake)",
		Labels:  []string{"fanout dist"},
		Columns: columns("", "variance", "probe ratio"),
		Notes:   []string{"paper: the estimate tracks actual probes closely even at very high fanout variance"},
	}
	for c, p := range points {
		ratio := float64(p.stats.HashProbes) / (p.predicted.HashProbes * p.rows)
		if p.overBudget {
			ratio = math.NaN()
		}
		t.add(cases[c].labels, variants[c].variance, ratio)
	}
	return t
}
