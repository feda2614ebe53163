package experiments

import (
	"fmt"
	"math/rand"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// fig16 reproduces the robustness evaluation of Section 5.7: for each
// query, execute uniformly random join orders (driver fixed) under all
// six strategies, normalize each strategy's counted costs by its own
// worst order, and report the min and median normalized cost — the
// shape of the paper's box plots. A tight box (values near 1) means
// the strategy is insensitive to the join order. Normalizing by the
// strategy's own worst order hides what COM removes from every order
// alike (the redundant probes), so the box of a cheaper strategy can
// look wider; the spread column is the same box in absolute terms,
// worst minus best order in weighted probes per driver tuple, the
// deviation Section 3.7 bounds. The paper's Fig. 16b repeats the
// experiment on CE-benchmark queries; one representative query per
// simulated dataset stands in for them.
func fig16(scale Scale, seed int64, workers int) *Table {
	driverRows, orders, foHi, ceMaxResult, ceDatasets := 10000, 10, 4.0, 1e8, 4
	if scale == Quick {
		// Flat output of every order under every strategy: the result
		// size is the run time, so Quick bounds it three ways.
		driverRows, orders, foHi, ceMaxResult, ceDatasets = 1000, 6, 3, 1e6, 2
	}

	rng := rand.New(rand.NewSource(seed))
	var cases []sweepCase
	for _, sf := range [][2]int{{5, 1}, {3, 2}} {
		for _, m := range [][2]float64{{0.05, 0.2}, {0.5, 0.9}} {
			cases = append(cases, sweepCase{
				labels: []string{fmt.Sprintf("%d-%d snowflake m=[%g-%g]", sf[0], sf[1], m[0], m[1])},
				generate: func() *storage.Dataset {
					tr := plan.Snowflake(sf[0], sf[1], plan.UniformStats(rng, m[0], m[1], 1, foHi))
					return workload.Generate(tr, workload.Config{DriverRows: driverRows, Seed: rng.Int63()})
				},
			})
		}
	}
	for _, p := range workload.CEProfiles[:ceDatasets] {
		cases = append(cases, sweepCase{
			labels: []string{"ce:" + p.Name},
			generate: func() *storage.Dataset {
				p.BaseRows = driverRows
				return workload.GenerateCEQueries(p, 1, ceMaxResult, rng.Int63())[0].Data
			},
		})
	}
	points := sweep(cases, grid{strategies: cost.AllStrategies, flat: []bool{true}, randomOrders: orders}, rng, scale, workers)

	t := &Table{
		Title:   "Fig 16: weighted cost across random join orders, normalized by the strategy's worst order",
		Labels:  []string{"query", "strategy"},
		Columns: append(columns("%.2f", "min", "median", "spread"), Column{"over budget", "%.0f"}),
		Notes: []string{
			"higher min/median = tighter box = more robust to the join order; spread = (worst - best) / driver rows",
			"paper: COM improves robustness across the board; SJ+COM shows almost no variation (Theorem 3.5)",
		},
	}
	for c, sc := range cases {
		for _, s := range cost.AllStrategies {
			var costs []float64
			for _, p := range cell(points, c, s, true) {
				if !p.overBudget {
					costs = append(costs, p.weighted)
				}
			}
			lo, med, worst := quartiles(costs)
			t.add([]string{sc.labels[0], s.String()},
				lo/worst, med/worst, (worst-lo)/float64(driverRows), float64(orders-len(costs)))
		}
	}
	return t
}
