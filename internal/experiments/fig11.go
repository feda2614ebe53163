package experiments

import (
	"fmt"
	"math/rand"
	"slices"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// vsCOM are the five strategies Figs. 11 and 12 report relative to COM.
var vsCOM = []cost.Strategy{cost.STD, cost.BVPCOM, cost.BVPSTD, cost.SJCOM, cost.SJSTD}

// relCOM returns the counted cost of case c under strategy s relative
// to COM's with the same output form and order; NaN when either run
// was over budget.
func relCOM(points []point, c int, s cost.Strategy, flat bool) float64 {
	return cell(points, c, s, flat)[0].weighted / cell(points, c, cost.COM, flat)[0].weighted
}

// strategyColumns returns one column per strategy, rendered with verb.
func strategyColumns(verb string, strategies []cost.Strategy) []Column {
	names := make([]string, len(strategies))
	for i, s := range strategies {
		names[i] = s.String()
	}
	return columns(verb, names...)
}

// fig11 reproduces the synthetic benchmark of Section 5.2: for each
// query shape and match-probability range, run the five non-baseline
// approaches and report counted execution cost relative to COM, with
// flat and factorized output. The join order is the survival-
// probability order, the paper's default. STD variants always
// materialize flat tuples, so only their COM baseline moves with the
// output form.
func fig11(scale Scale, seed int64, workers int) *Table {
	driverRows, foHi := 10000, 6.0
	if scale == Quick {
		driverRows, foHi = 5000, 3
	}
	mRanges := [][2]float64{{0.05, 0.2}, {0.05, 0.5}, {0.1, 0.5}, {0.5, 0.9}}

	rng := rand.New(rand.NewSource(seed))
	var cases []sweepCase
	for _, sh := range shapes(scale) {
		for _, mr := range mRanges {
			cases = append(cases, sweepCase{
				labels: []string{sh.name, rangeLabel(mr[0], mr[1])},
				generate: func() *storage.Dataset {
					tr := sh.build(plan.UniformStats(rng, mr[0], mr[1], 1, foHi))
					return workload.Generate(tr, workload.Config{DriverRows: driverRows, Seed: rng.Int63()})
				},
			})
		}
	}
	outputs := []bool{true, false}
	points := sweep(cases, grid{strategies: cost.AllStrategies, flat: outputs}, rng, scale, workers)

	t := &Table{
		Title:   fmt.Sprintf("Fig 11: weighted execution cost relative to COM (driver=%d)", driverRows),
		Labels:  []string{"query", "m range", "output"},
		Columns: strategyColumns("%.2f", vsCOM),
		Notes: []string{
			"cost = hash probes + 1/2 filter/semi-join probes + 1/14 expanded tuples (the paper's weights)",
			"values > 1: costlier than COM; 'timeout' mirrors the paper's timed-out STD runs",
			"paper: COM variants dominate STD variants, often by orders of magnitude; BVP/SJ alone are not competitive with COM",
		},
	}
	for c, sc := range cases {
		for _, flat := range outputs {
			var ratios []float64
			for _, s := range vsCOM {
				ratios = append(ratios, relCOM(points, c, s, flat))
			}
			t.add(append(slices.Clone(sc.labels), outputName(flat)), ratios...)
		}
	}
	return t
}
