package core

import (
	"slices"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/workload"
)

// TestPhase1PaidChoiceExecutesLess commits the serve datasets' warm
// table: on the benchmark's snowflake32 and path statistics at 20 000
// driver rows, seeds 1–3, flat output and measured statistics, the
// plan chosen with SJ phase 1 charged is BVP+COM and the plan chosen
// with it paid is SJ+COM; and the latter, run on its adopted phase 1,
// executes less weighted work than the former — on the executed
// counters, while both attribute the same answer. On star both
// choices are SJ+COM.
func TestPhase1PaidChoiceExecutesLess(t *testing.T) {
	names, trees := ledgerTrees()
	w := cost.DefaultWeights()
	for _, c := range []struct {
		name       string
		cold, warm cost.Strategy
	}{
		{"serve-snowflake32", cost.BVPCOM, cost.SJCOM},
		{"serve-path", cost.BVPCOM, cost.SJCOM},
		{"serve-star", cost.SJCOM, cost.SJCOM},
	} {
		tree := trees[slices.Index(names, c.name)]
		for seed := int64(1); seed <= 3; seed++ {
			ds := workload.Generate(tree, workload.Config{DriverRows: 20000, Seed: seed})
			req := PlanRequest{Dataset: ds, MeasureStats: true, FlatOutput: true}
			cold, err := ChoosePlan(req)
			if err != nil {
				t.Fatal(err)
			}
			req.Phase1Paid = true
			warm, err := ChoosePlan(req)
			if err != nil {
				t.Fatal(err)
			}
			if cold.Strategy != c.cold || warm.Strategy != c.warm {
				t.Errorf("%s seed %d: chose %v, with phase 1 paid %v; want %v, %v",
					c.name, seed, cold.Strategy, warm.Strategy, c.cold, c.warm)
				continue
			}
			if warm.Predicted != (cost.New(warm.Tree, w).Cost(warm.Strategy, warm.Order, true)) {
				t.Errorf("%s seed %d: the paid choice predicts %+v, not its whole cost", c.name, seed, warm.Predicted)
			}
			if c.cold == c.warm {
				continue
			}
			opts := ExecuteOptions{FlatOutput: true, Parallelism: 1}
			bvp, err := Execute(ds, cold, opts)
			if err != nil {
				t.Fatal(err)
			}
			if opts.BuildSide, err = ReduceBuildSide(ds, warm, opts); err != nil {
				t.Fatal(err)
			}
			sj, err := Execute(ds, warm, opts)
			if err != nil {
				t.Fatal(err)
			}
			if sj.OutputTuples != bvp.OutputTuples || sj.Checksum != bvp.Checksum || !sj.Phase1Adopted {
				t.Fatalf("%s seed %d: SJ+COM on its phase 1 (adopted %v) answers %d/%x, BVP+COM %d/%x",
					c.name, seed, sj.Phase1Adopted, sj.OutputTuples, sj.Checksum, bvp.OutputTuples, bvp.Checksum)
			}
			bvpCost, sjCost := bvp.Executed().WeightedCost(w), sj.Executed().WeightedCost(w)
			t.Logf("%s seed %d: executed BVP+COM %.0f, SJ+COM on its phase 1 %.0f (%.0f attributed)",
				c.name, seed, bvpCost, sjCost, sj.WeightedCost(w))
			if sjCost >= bvpCost {
				t.Errorf("%s seed %d: SJ+COM on its phase 1 executes %.0f, BVP+COM %.0f", c.name, seed, sjCost, bvpCost)
			}
		}
	}
}
