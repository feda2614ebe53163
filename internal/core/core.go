// Package core is the high-level API of the library: it ties together
// statistics measurement, the cost model, join-order optimization and
// the vectorized executor into a plan-then-execute flow, including the
// paper's headline capability of choosing both the join order and the
// execution strategy (STD/COM x {none, BVP, SJ}) from the cost model.
//
// Typical use:
//
//	ds := workload.Generate(tree, cfg)        // or hand-built dataset
//	choice := core.ChoosePlan(core.PlanRequest{Dataset: ds})
//	stats, err := core.Execute(ds, choice)
//
// ChoosePlan keeps the root of the dataset's join tree as the driver;
// ChooseDriver tries every relation as the driver (rerooting the tree
// and measuring the reversed edges) and keeps the cheapest plan.
//
// Measuring an edge builds the child's hash table; the choice keeps the
// workload.EdgeStatsCache it measured through, and Execute serves the
// cache's tables for the executed snapshot instead of building them
// again. A caller keeping its own cache past the query releases the
// tables (ReleaseTables) after Execute, not before.
package core

import (
	"fmt"
	"math"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// PlanRequest configures plan selection.
type PlanRequest struct {
	// Dataset provides the join tree; when MeasureStats is set the
	// edge statistics are measured from the data instead of trusting
	// the tree's annotations — exact to 16 384 live parent rows, from
	// an 8 192-row systematic sample of them above (workload.Measure).
	// Either way every child relation's whole table is built (Tables),
	// the builds fanned out over GOMAXPROCS workers.
	Dataset      *storage.Dataset
	MeasureStats bool
	// StatsCache optionally memoizes edge-statistics measurement when
	// MeasureStats is set. ChooseDriver shares one cache across all
	// candidate drivers so each edge direction is scanned once. The
	// cache also holds the tables the measurement built, which Execute
	// serves from it; whoever keeps it past the query releases them
	// (ReleaseTables) after Execute.
	StatsCache *workload.EdgeStatsCache
	// FlatOutput includes the expansion cost for COM variants.
	FlatOutput bool
	// Weights default to cost.DefaultWeights().
	Weights *cost.Weights
	// Algorithm picks the join-order search (default: exhaustive DP for
	// small trees, survival greedy above ExhaustiveLimit relations); the
	// SJ strategies' optimal plan takes none.
	Algorithm *opt.Algorithm
	// Strategies restricts the candidate strategies (default: all six).
	Strategies []cost.Strategy
	// Phase1Paid prices an SJ plan's phase 1 (cost.PlanCost.
	// Phase1Probes) as already paid: the caller keeps the snapshot's
	// reduction resident, so the choice weighs phase 2 only. The
	// choice's Predicted still carries the whole cost.
	Phase1Paid bool
}

// ExhaustiveLimit is the tree size above which plan selection defaults
// to the survival-probability greedy instead of Algorithm 1.
const ExhaustiveLimit = 16

// PlanChoice is a fully determined execution plan.
type PlanChoice struct {
	Strategy  cost.Strategy
	Order     plan.Order
	SemiJoins map[plan.NodeID][]plan.NodeID // phase-1 orders for SJ strategies
	Predicted cost.PlanCost
	// Tree is the (possibly measured) statistics tree the choice was
	// costed against.
	Tree *plan.Tree
	// cache is the edge-statistics cache MeasureStats measured through:
	// Execute serves its plan-time tables (see stamp).
	cache *workload.EdgeStatsCache
}

// planArtifacts is the read-only exec.Artifacts view of plan-time
// tables: hits for the relations it holds, nothing kept of what the run
// builds.
type planArtifacts []*hashtable.Table

func (a planArtifacts) Table(id plan.NodeID) *hashtable.Table { return a[id] }
func (planArtifacts) PutTable(plan.NodeID, *hashtable.Table)  {}

// ChoosePlan costs every candidate strategy with its best join order
// and returns the cheapest plan, SJ phase 1 left out of the price under
// Phase1Paid; it is an error when no candidate's price is finite.
func ChoosePlan(req PlanRequest) (PlanChoice, error) {
	if req.Dataset == nil {
		return PlanChoice{}, fmt.Errorf("core: PlanRequest.Dataset is required")
	}
	tree := req.Dataset.Tree
	var cache *workload.EdgeStatsCache
	if req.MeasureStats {
		cache = req.StatsCache
		if cache == nil {
			cache = workload.NewEdgeStatsCache()
		}
		tree = workload.MeasuredTreeCached(req.Dataset, cache)
	}
	w := cost.DefaultWeights()
	if req.Weights != nil {
		w = *req.Weights
	}
	model := cost.New(tree, w)

	alg := opt.Exhaustive
	if tree.Len() > ExhaustiveLimit {
		alg = opt.GreedySurvival
	}
	if req.Algorithm != nil {
		alg = *req.Algorithm
	}
	strategies := req.Strategies
	if len(strategies) == 0 {
		strategies = cost.AllStrategies
	}

	var best PlanChoice
	var bestPrice float64
	found := false
	for _, s := range strategies {
		r := opt.Optimize(model, s, alg)
		choice := PlanChoice{
			Strategy:  s,
			Order:     r.Order,
			SemiJoins: r.SemiJoins,
			Predicted: model.Cost(s, r.Order, req.FlatOutput),
			Tree:      tree,
		}
		// A NaN or infinite prediction is the statistics leaving the
		// model's domain (an infinite fanout, say), not a cost: it
		// neither wins by arriving first nor loses silently to `<`.
		price := choice.Predicted.Total
		if req.Phase1Paid {
			price -= w.Filter * choice.Predicted.Phase1Probes
		}
		if math.IsNaN(price) || math.IsInf(price, 0) {
			continue
		}
		if !found || price < bestPrice {
			best, bestPrice = choice, price
			found = true
		}
	}
	if !found {
		return PlanChoice{}, fmt.Errorf("core: no strategy of %v has a finite predicted cost", strategies)
	}
	best.cache = cache
	return best, nil
}

// ExecuteOptions tune execution of a chosen plan: the executor's own
// options. Execute overwrites Strategy, Order and SemiJoins with the
// choice's, and when Artifacts is nil serves the choice's plan-time
// tables instead.
type ExecuteOptions = exec.Options

// Execute runs the chosen plan against the dataset: the choice's plan
// stamped into opts and, without a caller-supplied provider, the
// choice's plan-time tables valid for ds in its place.
func Execute(ds *storage.Dataset, choice PlanChoice, opts ExecuteOptions) (exec.Stats, error) {
	return exec.Run(ds, choice.stamp(ds, opts))
}

// ReduceBuildSide runs the chosen SJ plan's whole phase 1 over ds once
// (exec.ReduceBuildSide: the build side and the whole driver's
// reduction), under the options Execute would run it with, for
// Executes over ds — repeated whole-driver ones, or its shards', which
// restrict the reduced driver to their rows — to share as
// ExecuteOptions.BuildSide.
func ReduceBuildSide(ds *storage.Dataset, choice PlanChoice, opts ExecuteOptions) (*exec.BuildSide, error) {
	return exec.ReduceBuildSide(ds, choice.stamp(ds, opts))
}

// stamp returns opts with the choice's plan and, without a caller-
// supplied provider, the plan-time tables the choice's statistics cache
// holds for ds (EdgeStatsCache.Tables) — except those of selected
// relations, whose tables have another shape. The cache is read here,
// on the caller's goroutine, before the executor fans out.
func (choice PlanChoice) stamp(ds *storage.Dataset, opts ExecuteOptions) ExecuteOptions {
	opts.Strategy, opts.Order, opts.SemiJoins = choice.Strategy, choice.Order, choice.SemiJoins
	if opts.Artifacts == nil && choice.cache != nil {
		tables := choice.cache.Tables(ds)
		for _, sel := range opts.Selections {
			if int(sel.Rel) >= 0 && int(sel.Rel) < len(tables) {
				tables[sel.Rel] = nil
			}
		}
		opts.Artifacts = planArtifacts(tables)
	}
	return opts
}

// Query is the one-call convenience: measure statistics, choose the
// best plan across all strategies, execute it, and return both the
// choice and the measured execution statistics.
func Query(ds *storage.Dataset, flatOutput bool) (PlanChoice, exec.Stats, error) {
	choice, err := ChoosePlan(PlanRequest{
		Dataset:      ds,
		MeasureStats: true,
		FlatOutput:   flatOutput,
	})
	if err != nil {
		return PlanChoice{}, exec.Stats{}, err
	}
	stats, err := Execute(ds, choice, ExecuteOptions{FlatOutput: flatOutput})
	if err != nil {
		return PlanChoice{}, exec.Stats{}, err
	}
	return choice, stats, nil
}
