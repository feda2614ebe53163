package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// qError is the factor by which a prediction misses a count, in either
// direction; two zeros agree exactly.
func qError(predicted, counted float64) float64 {
	if predicted == counted {
		return 1
	}
	return math.Max(predicted/counted, counted/predicted)
}

// TestModelMatchesExecutor is the paper's Fig. 14 as a property: on
// generated data, with the statistics measured from that data, the
// model's hash probes, filter probes and weighted total for the plan
// ChoosePlan picks under each strategy predict what the executor then
// counts, within the strategy's tolerance. Counters only, never time.
func TestModelMatchesExecutor(t *testing.T) {
	const driverRows = 5000
	// The largest q-error each strategy is allowed, per compared
	// quantity (the worst seen over the 30 datasets, plus a few
	// percent). The unfiltered strategies follow from the measured
	// statistics almost exactly. A BVP probe count rests on ε, a
	// constant of the model rather than a measurement, and an SJ one on
	// the independence assumption behind Theorem 3.4; both miss by more
	// on the few hash probes that are left than on the total.
	tolerance := map[cost.Strategy]struct{ hash, filter, total float64 }{
		cost.STD:    {hash: 1.06, filter: 1, total: 1.06},
		cost.COM:    {hash: 1.03, filter: 1, total: 1.03},
		cost.BVPSTD: {hash: 1.20, filter: 1.06, total: 1.12},
		cost.BVPCOM: {hash: 1.18, filter: 1.06, total: 1.08},
		cost.SJSTD:  {hash: 1.15, filter: 1.02, total: 1.08},
		cost.SJCOM:  {hash: 1.20, filter: 1.02, total: 1.04},
	}
	shapes := []struct {
		name  string
		build func(plan.StatsSource) *plan.Tree
	}{
		{"star4", func(src plan.StatsSource) *plan.Tree { return plan.Star(4, src) }},
		{"path5", func(src plan.StatsSource) *plan.Tree { return plan.Path(5, src) }},
		{"snowflake31", func(src plan.StatsSource) *plan.Tree { return plan.Snowflake(3, 1, src) }},
	}
	w := cost.DefaultWeights()
	for _, sh := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := sh.build(plan.UniformStats(rng, 0.3, 0.8, 1, 3))
			ds := workload.Generate(tr, workload.Config{DriverRows: driverRows, Seed: seed})
			cache := workload.NewEdgeStatsCache()
			for _, s := range cost.AllStrategies {
				for _, flat := range []bool{true, false} {
					repro := fmt.Sprintf("%s seed %d %v flat=%v", sh.name, seed, s, flat)
					choice, err := ChoosePlan(PlanRequest{
						Dataset: ds, MeasureStats: true, StatsCache: cache,
						FlatOutput: flat, Strategies: []cost.Strategy{s},
					})
					if err != nil {
						t.Fatalf("%s: %v", repro, err)
					}
					st, err := Execute(ds, choice, ExecuteOptions{FlatOutput: flat})
					if err != nil {
						t.Fatalf("%s: %v", repro, err)
					}
					tol, p := tolerance[s], choice.Predicted
					for _, c := range []struct {
						what               string
						predicted, counted float64
						bound              float64
					}{
						{"hash probes", p.HashProbes * driverRows, float64(st.HashProbes), tol.hash},
						{"filter probes", p.FilterProbes * driverRows, float64(st.FilterProbes + st.SemiJoinProbes), tol.filter},
						{"weighted total", p.Total * driverRows, st.WeightedCost(w), tol.total},
					} {
						if q := qError(c.predicted, c.counted); !(q <= c.bound) {
							t.Errorf("%s: %s predicted %.0f, counted %.0f: q-error %.3f > %.2f (order %v)",
								repro, c.what, c.predicted, c.counted, q, c.bound, choice.Order)
						}
					}
				}
			}
		}
	}
}
