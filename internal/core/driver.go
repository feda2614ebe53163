package core

import (
	"fmt"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// DriverChoice is the outcome of driver enumeration: the rerooted
// dataset with the winning driver, the plan for it, and the mapping
// from the original tree's node IDs to the rerooted tree's.
type DriverChoice struct {
	// Driver is the winning driver in the ORIGINAL tree's node IDs.
	Driver plan.NodeID
	// Dataset is the rerooted dataset (identical relations, new tree).
	Dataset *storage.Dataset
	// Mapping translates original node IDs to the rerooted tree's.
	Mapping map[plan.NodeID]plan.NodeID
	// Plan is the chosen plan over the rerooted dataset.
	Plan PlanChoice
	// EdgeMeasurements is the number of edge-statistics data scans the
	// enumeration performed. Each undirected edge has two probe
	// directions measured at most once, so this is bounded by
	// 2*(relations-1) regardless of how many drivers were tried.
	EdgeMeasurements int
}

// ChooseDriver implements the paper's outer loop over driver
// relations (Section 2.1): every relation is tried as the driver by
// rerooting the join tree, measuring the reversed edge statistics from
// the data, and running plan selection; the cheapest overall plan
// wins. The inner plan selection follows req (its Dataset field is
// overridden per candidate and MeasureStats is forced on, since
// reversed edges have no annotations).
//
// Edge statistics are memoized across candidates: an undirected edge
// has exactly two probe directions, each measured once and replayed
// for every reroot and plan selection that needs it, so the
// enumeration scans the data O(relations) times instead of O(n^2). The
// shared cache keeps every table it measured, so Executing the winning
// Plan on Dataset is served the table of every non-root relation.
func ChooseDriver(ds *storage.Dataset, req PlanRequest) (DriverChoice, error) {
	if ds == nil {
		return DriverChoice{}, fmt.Errorf("core: ChooseDriver requires a dataset")
	}
	cache := workload.NewEdgeStatsCache()
	var best DriverChoice
	found := false
	for i := 0; i < ds.Tree.Len(); i++ {
		driver := plan.NodeID(i)
		var (
			cand    *storage.Dataset
			mapping map[plan.NodeID]plan.NodeID
		)
		if driver == plan.Root {
			cand = ds
			mapping = identityMapping(ds.Tree.Len())
		} else {
			cand, mapping = workload.RerootCached(ds, driver, cache)
		}
		r := req
		r.Dataset = cand
		r.MeasureStats = true
		r.StatsCache = cache
		choice, err := ChoosePlan(r)
		if err != nil {
			return DriverChoice{}, fmt.Errorf("core: driver %d: %w", driver, err)
		}
		if !found || choice.Predicted.Total*driverRows(cand) < best.Plan.Predicted.Total*driverRows(best.Dataset) {
			best = DriverChoice{Driver: driver, Dataset: cand, Mapping: mapping, Plan: choice}
			found = true
		}
	}
	best.EdgeMeasurements = cache.Misses()
	return best, nil
}

// driverRows returns the driver cardinality as a float for total-cost
// comparison: per-tuple costs of different drivers are not comparable
// without scaling by their cardinalities.
func driverRows(ds *storage.Dataset) float64 {
	return float64(ds.Relation(plan.Root).NumRows())
}

func identityMapping(n int) map[plan.NodeID]plan.NodeID {
	m := make(map[plan.NodeID]plan.NodeID, n)
	for i := 0; i < n; i++ {
		m[plan.NodeID(i)] = plan.NodeID(i)
	}
	return m
}
