package experiments

import (
	"math"
	"math/rand"
	"slices"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// fig14 reproduces the cost-model validation of Section 5.5: for
// synthetic queries of the four shapes, execute many randomly chosen
// join orders under COM and STD — a population spanning a wide cost
// range, as in the paper's 300-order scatter — and compare the model's
// predicted cost (weighted probes, from measured statistics) with the
// counted weighted probes: their Pearson correlation and the mean and
// max relative error. The paper's own statement is about wall-clock
// time; that correlation is reported at Full scale only, where runs
// last long enough for a timer to resolve them (at Quick it read
// anywhere in [-0.7, 0.8] from seed to seed beside a probe correlation
// of 1.000).
func fig14(scale Scale, seed int64, workers int) *Table {
	driverRows, foHi := 50000, 5.0
	shapeSet := shapes(scale)
	g := grid{strategies: []cost.Strategy{cost.COM, cost.STD}, flat: []bool{true}, randomOrders: 60, repeats: 3}
	if scale == Quick {
		driverRows, foHi = 25000, 3
		shapeSet = shapeSet[:2]
		g.randomOrders, g.repeats = 10, 1
	}

	rng := rand.New(rand.NewSource(seed))
	var cases []sweepCase
	for _, sh := range shapeSet {
		cases = append(cases, sweepCase{
			labels: []string{sh.name},
			generate: func() *storage.Dataset {
				tr := sh.build(plan.UniformStats(rng, 0.2, 0.7, 1, foHi))
				return workload.Generate(tr, workload.Config{DriverRows: driverRows, Seed: rng.Int63()})
			},
		})
	}
	points := sweep(cases, g, rng, scale, workers)

	t := &Table{
		Title:  "Fig 14: predicted cost vs actual execution (random orders, STD and COM mixed)",
		Labels: []string{"query"},
		Columns: []Column{{"runs", "%.0f"}, {"corr(pred, probes)", ""},
			{"mean |probe err|", "%.1f%%"}, {"max |probe err|", "%.1f%%"}},
		Notes: []string{
			"probe err compares the model's weighted probe prediction with the executor's counted probes",
			"paper: predicted costs align tightly with execution times across shapes and orders",
		},
	}
	if scale == Full {
		t.Columns = append(t.Columns, Column{"corr(pred, time)", ""})
	}
	for c, sc := range cases {
		var preds, counted, times, errs []float64
		for _, p := range points {
			if p.c != c || p.overBudget {
				continue
			}
			pred := p.predicted.Total * p.rows
			preds = append(preds, pred)
			counted = append(counted, p.weighted)
			times = append(times, float64(p.elapsed))
			errs = append(errs, 100*math.Abs(p.weighted-pred)/math.Max(pred, 1))
		}
		row := []float64{float64(len(preds)), math.NaN(), math.NaN(), math.NaN(), math.NaN()}
		if len(preds) >= 3 {
			row = []float64{float64(len(preds)), pearson(preds, counted), mean(errs), slices.Max(errs), pearson(preds, times)}
		}
		t.add(sc.labels, row[:len(t.Columns)]...)
	}
	return t
}

// pearson returns the Pearson correlation coefficient of two samples.
func pearson(xs, ys []float64) float64 {
	mx, my := mean(xs), mean(ys)
	var cov, vx, vy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}
