package service

import (
	"fmt"
	"strings"
	"testing"

	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// TestDriverLoopOnStandardMix is the driver-loop table: every dataset
// m2mserve -preload serves (StandardMix(10000, 1)) planned at its
// registered root (core.ChoosePlan) and over every driver
// (core.ChooseDriver, the paper's §2.1 outer loop), both plans
// executed, factorized and flat, and their executed weighted costs
// compared. Both plans must emit the same tuples.
//
// snowflake32 reroots to a BVP+COM plan at least 1.5× cheaper. star
// reroots to an SJ+COM plan that executes dearer than the root's: the
// cost model undercounts SJ phase-1 probes after a reroot. That row is
// logged, not asserted, until the model counts the rows that exist.
func TestDriverLoopOnStandardMix(t *testing.T) {
	regs, _ := StandardMix(10000, 1)
	var table strings.Builder
	for _, reg := range regs {
		tree, err := reg.tree()
		if err != nil {
			t.Fatal(err)
		}
		ds := workload.Generate(tree, workload.Config{DriverRows: reg.Rows, Seed: reg.Seed})
		for _, flat := range []bool{false, true} {
			root, err := core.ChoosePlan(core.PlanRequest{Dataset: ds, MeasureStats: true, FlatOutput: flat})
			if err != nil {
				t.Fatal(err)
			}
			atRoot, err := core.Execute(ds, root, core.ExecuteOptions{FlatOutput: flat})
			if err != nil {
				t.Fatal(err)
			}
			dc, err := core.ChooseDriver(ds, core.PlanRequest{FlatOutput: flat})
			if err != nil {
				t.Fatal(err)
			}
			atDriver, err := core.Execute(dc.Dataset, dc.Plan, core.ExecuteOptions{FlatOutput: flat})
			if err != nil {
				t.Fatal(err)
			}
			w := cost.DefaultWeights()
			before, after := atRoot.WeightedCost(w), atDriver.WeightedCost(w)
			fmt.Fprintf(&table, "%-16s flat=%-5v root %-7s %8.0f -> driver %d %-7s %8.0f  (%.2fx)\n",
				reg.Name, flat, root.Strategy, before, dc.Driver, dc.Plan.Strategy, after, before/after)
			if atRoot.OutputTuples != atDriver.OutputTuples {
				t.Errorf("%s flat=%v: %d tuples at the root, %d at driver %d",
					reg.Name, flat, atRoot.OutputTuples, atDriver.OutputTuples, dc.Driver)
			}
			if reg.Shape == "snowflake32" && (dc.Driver == plan.Root || before < 1.5*after) {
				t.Errorf("%s flat=%v: driver %d executes %.0f against the root's %.0f, want at least 1.5x cheaper",
					reg.Name, flat, dc.Driver, after, before)
			}
		}
	}
	t.Logf("executed weighted cost, root plan -> ChooseDriver plan:\n%s", table.String())
}
