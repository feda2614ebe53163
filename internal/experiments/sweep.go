package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// sweepCase is one dataset of an executing figure. generate runs when
// the sweep reaches the case, so a figure whose generators draw from
// its rand.Rand consumes it in case order.
type sweepCase struct {
	labels   []string
	generate func() *storage.Dataset
}

// grid is what a sweep runs on every case: each strategy, with each
// output form, on each join order.
type grid struct {
	strategies []cost.Strategy
	flat       []bool
	// randomOrders is the number of uniformly random join orders drawn
	// per case; 0 runs the one survival-greedy order, the paper's
	// default.
	randomOrders int
	// repeats > 1 keeps the fastest of that many timings of each run.
	repeats int
}

// point is one executed (or over-budget) cell of a sweep.
type point struct {
	c        int // index into the sweep's cases
	strategy cost.Strategy
	order    int // index into the case's orders
	flat     bool
	// predicted is the model's cost per driver tuple from the measured
	// statistics; rows is the driver cardinality it scales by.
	predicted cost.PlanCost
	rows      float64
	// overBudget marks a run predicted to cost more than the scale's
	// budget; it was not executed and its weighted cost is NaN,
	// mirroring the paper's timed-out STD data points.
	overBudget bool
	stats      exec.Stats
	weighted   float64 // counted probes and tuples under the model's weights
	elapsed    time.Duration
}

// budget caps the predicted weighted cost of a single run.
func budget(s Scale) float64 {
	if s == Full {
		return 2e9
	}
	return 5e7
}

// sweep generates each case's dataset, measures its statistics, picks
// the join orders and executes the grid on workers probe workers,
// skipping runs predicted over the scale's budget. Points come back
// case by case, within a case order by order, then by output form and
// strategy in grid order. The counted cost is the paper's abstract
// metric (hash probes + 1/2 filter and semi-join probes + 1/14 expanded
// tuples): unlike wall-clock it is exact and hardware-independent,
// which matters at quick scale where sub-millisecond runs drown in
// scheduler noise.
func sweep(cases []sweepCase, g grid, rng *rand.Rand, scale Scale, workers int) []point {
	var points []point
	for c, sc := range cases {
		ds := sc.generate()
		model := cost.New(workload.MeasuredTree(ds), cost.DefaultWeights())
		rows := float64(ds.Relation(plan.Root).NumRows())
		orders := []plan.Order{opt.Optimize(model, cost.COM, opt.GreedySurvival).Order}
		if g.randomOrders > 0 {
			orders = make([]plan.Order, g.randomOrders)
			for i := range orders {
				orders[i] = randomOrder(ds.Tree, rng)
			}
		}
		for o, order := range orders {
			for _, flat := range g.flat {
				for _, s := range g.strategies {
					p := point{c: c, strategy: s, order: o, flat: flat, rows: rows,
						predicted: model.Cost(s, order, flat), weighted: math.NaN()}
					p.overBudget = p.predicted.Total*rows > budget(scale)
					for rep := 0; rep < max(g.repeats, 1) && !p.overBudget; rep++ {
						start := time.Now()
						stats, err := exec.Run(ds, exec.Options{
							Strategy: s, Order: order, FlatOutput: flat, Parallelism: workers})
						if err != nil {
							panic(fmt.Sprintf("experiments: execution failed: %v", err))
						}
						if el := time.Since(start); rep == 0 || el < p.elapsed {
							p.stats, p.elapsed = stats, el
							p.weighted = stats.WeightedCost(model.Weights())
						}
					}
					points = append(points, p)
				}
			}
		}
	}
	return points
}

// cell returns case c's points of one strategy and output form, one per
// join order.
func cell(points []point, c int, s cost.Strategy, flat bool) []point {
	var out []point
	for _, p := range points {
		if p.c == c && p.strategy == s && p.flat == flat {
			out = append(out, p)
		}
	}
	return out
}

// randomOrder draws a uniformly random valid left-deep order by
// repeatedly picking from the frontier.
func randomOrder(t *plan.Tree, rng *rand.Rand) plan.Order {
	done := plan.SetOf(plan.Root)
	var o plan.Order
	for len(o) < t.Len()-1 {
		f := t.Frontier(done).IDs()
		pick := f[rng.Intn(len(f))]
		o = append(o, pick)
		done = done.With(pick)
	}
	return o
}

func outputName(flat bool) string {
	if flat {
		return "flat"
	}
	return "factorized"
}
