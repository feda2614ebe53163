package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
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
// Besides fifteen plain datasets the inputs are a skewed-fanout one, a
// snapshot with pending deletes, a driver selection, and one large
// enough that the statistics come from a sample.
func TestModelMatchesExecutor(t *testing.T) {
	const driverRows = 5000
	// The largest q-error each strategy is allowed, per compared
	// quantity (the worst seen over the plain datasets, plus a few
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
	// An input is a dataset, the selections its queries carry and the
	// driver rows they scan, which the per-driver-tuple predictions scale.
	type input struct {
		name    string
		ds      *storage.Dataset
		sels    []exec.Selection
		drivers int
	}
	var inputs []input
	generate := func(name string, tr *plan.Tree, cfg workload.Config) *storage.Dataset {
		ds := workload.Generate(tr, cfg)
		inputs = append(inputs, input{name, ds, nil, cfg.DriverRows})
		return ds
	}
	for _, sh := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			tr := sh.build(plan.UniformStats(rng, 0.3, 0.8, 1, 3))
			generate(fmt.Sprintf("%s seed %d", sh.name, seed), tr, workload.Config{DriverRows: driverRows, Seed: seed})
		}
	}
	rng := rand.New(rand.NewSource(6))
	tr := plan.Snowflake(3, 1, plan.UniformStats(rng, 0.3, 0.8, 1, 3))

	// Skewed fanouts: the paper's Section 5.6 normal fanouts around each
	// edge's fo instead of ⌊fo⌋ or ⌈fo⌉, the same mean.
	fanouts := make(map[plan.NodeID]workload.FanoutDist)
	for _, id := range tr.NonRoot() {
		fanouts[id] = workload.TruncNormal{Mu: tr.Stats(id).Fo, Sigma: 1}
	}
	generate("snowflake31 normal fanouts", tr, workload.Config{DriverRows: driverRows, Seed: 6, Fanouts: fanouts})

	// A snapshot with pending deletes: every tenth row of each leaf. A
	// deleted row of an inner relation or of the driver would leave its
	// children dangling, outside the model's cardinality assumption.
	ds := workload.Generate(tr, workload.Config{DriverRows: driverRows, Seed: 7})
	delta := ds.Begin()
	for _, id := range tr.NonRoot() {
		if len(tr.Children(id)) == 0 {
			for row := 0; row < ds.Relation(id).NumRows(); row += 10 {
				delta.Delete(tr.Name(id), row)
			}
		}
	}
	v, err := delta.Commit()
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"snowflake31 pending deletes", v.Dataset, nil, driverRows})

	// Above 16 384 driver rows the statistics come from a sample.
	generate("snowflake31 20000 rows", tr, workload.Config{DriverRows: 20000, Seed: 8})

	// A driver selection keeping a quarter of 20 000 rows (the driver's
	// payload column v becomes id mod 4), on a star: the semi-join pass
	// reduces no relation but the driver, so every count scales with the
	// selected driver rows.
	star := workload.Generate(plan.Star(4, plan.UniformStats(rng, 0.3, 0.8, 1, 3)), workload.Config{DriverRows: 20000, Seed: 9})
	payload := star.Relation(plan.Root).Column("v")
	for row := range payload {
		payload[row] = int64(row % 4)
	}
	inputs = append(inputs, input{"star4 20000 rows, driver v = 1", star,
		[]exec.Selection{{Rel: plan.Root, Column: "v", Value: 1}}, 20000 / 4})

	w := cost.DefaultWeights()
	worst := make(map[cost.Strategy]*[3]float64)
	for _, s := range cost.AllStrategies {
		worst[s] = &[3]float64{1, 1, 1}
	}
	for _, in := range inputs {
		cache := workload.NewEdgeStatsCache()
		rows := float64(in.drivers)
		for _, s := range cost.AllStrategies {
			for _, flat := range []bool{true, false} {
				repro := fmt.Sprintf("%s %v flat=%v", in.name, s, flat)
				choice, err := ChoosePlan(PlanRequest{
					Dataset: in.ds, MeasureStats: true, StatsCache: cache,
					FlatOutput: flat, Strategies: []cost.Strategy{s},
				})
				if err != nil {
					t.Fatalf("%s: %v", repro, err)
				}
				st, err := Execute(in.ds, choice, ExecuteOptions{FlatOutput: flat, Selections: in.sels})
				if err != nil {
					t.Fatalf("%s: %v", repro, err)
				}
				tol, p := tolerance[s], choice.Predicted
				for i, c := range []struct {
					what               string
					predicted, counted float64
					bound              float64
				}{
					{"hash probes", p.HashProbes * rows, float64(st.HashProbes), tol.hash},
					{"filter probes", p.FilterProbes * rows, float64(st.FilterProbes + st.SemiJoinProbes), tol.filter},
					{"weighted total", p.Total * rows, st.WeightedCost(w), tol.total},
				} {
					q := qError(c.predicted, c.counted)
					if !(q <= c.bound) {
						t.Errorf("%s: %s predicted %.0f, counted %.0f: q-error %.3f > %.2f (order %v)",
							repro, c.what, c.predicted, c.counted, q, c.bound, choice.Order)
					}
					worst[s][i] = math.Max(worst[s][i], q)
				}
			}
		}
	}
	for _, s := range cost.AllStrategies {
		t.Logf("%-7v worst q-error over %d datasets: hash %.3f filter %.3f total %.3f",
			s, len(inputs), worst[s][0], worst[s][1], worst[s][2])
	}
}
