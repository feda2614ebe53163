package experiments

import (
	"math"
	"math/rand"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// fig12 reproduces the CE-benchmark comparison of Section 5.3 over the
// simulated graph datasets (workload.CEProfiles gives the substitution
// rationale): random acyclic queries with result sizes under the cap,
// executed under all six strategies; counted costs are reported
// relative to COM, aggregated per dataset, output form and strategy as
// median, min and max across the dataset's queries.
func fig12(scale Scale, seed int64, workers int) *Table {
	queriesPer, maxResult, profiles := 10, 1e10, workload.CEProfiles
	if scale == Quick {
		queriesPer, maxResult, profiles = 3, 1e7, profiles[:3]
	}

	outputs := []bool{true, false}
	t := &Table{
		Title:   "Fig 12: CE benchmark (simulated), weighted execution cost relative to COM across each dataset's queries",
		Labels:  []string{"dataset", "output", "strategy"},
		Columns: append(columns("%.2f", "median", "min", "max"), Column{"over budget", "%.0f"}),
		Notes: []string{
			"datasets are synthetic stand-ins for epinions/imdb/watdiv/dblp/yago (offline build; see workload.CEProfiles)",
			"paper: COM variants outperform STD variants on almost all queries; COM/COM+BVP/COM+SJ are close, SJ shows higher variance",
		},
	}
	rng := rand.New(rand.NewSource(seed))
	for _, p := range profiles {
		if scale == Quick {
			p.BaseRows /= 4
		}
		// One sweep per dataset, so only its queries are in memory.
		var cases []sweepCase
		for _, q := range workload.GenerateCEQueries(p, queriesPer, maxResult, rng.Int63()) {
			cases = append(cases, sweepCase{generate: func() *storage.Dataset { return q.Data }})
		}
		points := sweep(cases, grid{strategies: cost.AllStrategies, flat: outputs}, rng, scale, workers)
		for _, flat := range outputs {
			for _, s := range vsCOM {
				var ratios []float64
				for c := range cases {
					if r := relCOM(points, c, s, flat); !math.IsNaN(r) {
						ratios = append(ratios, r)
					}
				}
				lo, med, hi := quartiles(ratios)
				t.add([]string{p.Name, outputName(flat), s.String()}, med, lo, hi, float64(len(cases)-len(ratios)))
			}
		}
	}
	return t
}
