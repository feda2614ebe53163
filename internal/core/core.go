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
// The driver relation is the root of the dataset's join tree; to
// consider other drivers, build the tree rooted at each candidate and
// compare the predicted costs.
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
	// Either way every child relation's whole table is built (Tables).
	Dataset      *storage.Dataset
	MeasureStats bool
	// StatsCache optionally memoizes edge-statistics measurement when
	// MeasureStats is set. ChooseDriver shares one cache across all
	// candidate drivers so each edge direction is scanned once. The
	// cache also holds the tables the measurement built (see
	// PlanChoice.Tables); whoever keeps it past the query releases them.
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
	// Tables are the hash tables MeasureStats built to count the tree's
	// edge statistics: the engine's own table per non-root relation,
	// which Execute serves to the executor instead of building it a
	// second time. Nil without MeasureStats; clearing the field only
	// costs the rebuild.
	Tables *PlanTables
}

// PlanTables carries the plan-time hash tables of one dataset snapshot
// from ChoosePlan into Execute. Each is the table of a non-root relation
// on its parent-join key under the snapshot's base/live masks — bit for
// bit what the executor builds for a relation without a selection
// (equal hashtable.Table.Checksum). Execute and ExecuteBatch use them
// only when the caller passed no Artifacts provider, only on the very
// snapshot they were measured on — the same *storage.Dataset with every
// relation at its measured row count, so a later version, a rerooted
// tree or an in-place append falls back to building — and never for a
// relation that carries a selection, whose table has another shape.
// Stats are identical either way except CacheHits/CacheMisses, which
// then count the tables served and the artifacts built.
type PlanTables struct {
	ds     *storage.Dataset
	rows   []int              // per relation, at measurement
	tables []*hashtable.Table // by NodeID; nil = not held
}

// newPlanTables binds tables (by NodeID) to the snapshot they were
// measured on; nil when there is nothing to carry.
func newPlanTables(ds *storage.Dataset, tables []*hashtable.Table) *PlanTables {
	p := &PlanTables{ds: ds, rows: make([]int, ds.Tree.Len()), tables: tables}
	if p.Len() == 0 {
		return nil
	}
	for i := range p.rows {
		p.rows[i] = ds.Relation(plan.NodeID(i)).NumRows()
	}
	return p
}

// Table returns the held table of relation id, or nil.
func (p *PlanTables) Table(id plan.NodeID) *hashtable.Table { return p.tables[id] }

// Len returns the number of tables held.
func (p *PlanTables) Len() int {
	if p == nil {
		return 0
	}
	n := 0
	for _, t := range p.tables {
		if t != nil {
			n++
		}
	}
	return n
}

// artifacts returns the provider serving p's tables to an execution on
// ds under sels, or nil when they do not apply to it.
func (p *PlanTables) artifacts(ds *storage.Dataset, sels []exec.Selection) exec.Artifacts {
	if p == nil || p.ds != ds {
		return nil
	}
	for i, n := range p.rows {
		if ds.Relation(plan.NodeID(i)).NumRows() != n {
			return nil
		}
	}
	tables := p.tables
	if len(sels) > 0 {
		tables = append([]*hashtable.Table(nil), tables...)
		for _, sel := range sels {
			if int(sel.Rel) >= 0 && int(sel.Rel) < len(tables) {
				tables[sel.Rel] = nil
			}
		}
	}
	return planArtifacts(tables)
}

// planArtifacts is the read-only exec.Artifacts view of plan-time
// tables: hits for the relations it holds, nothing kept of what the run
// builds.
type planArtifacts []*hashtable.Table

func (a planArtifacts) Table(id plan.NodeID) *hashtable.Table { return a[id] }
func (planArtifacts) PutTable(plan.NodeID, *hashtable.Table)  {}

// ChoosePlan costs every candidate strategy with its best join order
// and returns the cheapest plan; it is an error when no candidate's
// predicted cost is finite.
func ChoosePlan(req PlanRequest) (PlanChoice, error) {
	if req.Dataset == nil {
		return PlanChoice{}, fmt.Errorf("core: PlanRequest.Dataset is required")
	}
	tree := req.Dataset.Tree
	var tables *PlanTables
	if req.MeasureStats {
		cache := req.StatsCache
		if cache == nil {
			cache = workload.NewEdgeStatsCache()
		}
		tree = workload.MeasuredTreeCached(req.Dataset, cache)
		tables = newPlanTables(req.Dataset, cache.Tables(req.Dataset))
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
		if total := choice.Predicted.Total; math.IsNaN(total) || math.IsInf(total, 0) {
			continue
		}
		if !found || choice.Predicted.Total < best.Predicted.Total {
			best = choice
			found = true
		}
	}
	if !found {
		return PlanChoice{}, fmt.Errorf("core: no strategy of %v has a finite predicted cost", strategies)
	}
	best.Tables = tables
	return best, nil
}

// ExecuteOptions tune execution of a chosen plan: the executor's own
// options. Execute and ExecuteBatch overwrite Strategy, Order and
// SemiJoins with the choice's, and when Artifacts is nil serve the
// choice's plan-time tables instead (PlanTables).
type ExecuteOptions = exec.Options

// ExecuteBatch runs several chosen plans against the same dataset
// snapshot as one shared driver scan (exec.RunBatch): one Stats and
// one error slot per member, each bit-identical to its solo Execute.
// Members rejected with exec.ErrBatchIncompatible should be re-run
// solo by the caller.
func ExecuteBatch(ds *storage.Dataset, choices []PlanChoice, opts []ExecuteOptions) ([]exec.Stats, []error) {
	optsList := make([]exec.Options, len(choices))
	for i, choice := range choices {
		optsList[i] = execOptions(ds, choice, opts[i])
	}
	return exec.RunBatch(ds, optsList)
}

// Execute runs the chosen plan against the dataset.
func Execute(ds *storage.Dataset, choice PlanChoice, opts ExecuteOptions) (exec.Stats, error) {
	return exec.Run(ds, execOptions(ds, choice, opts))
}

// execOptions stamps the choice's plan into opts; without a
// caller-supplied provider the choice's plan-time tables, where they
// apply to ds, take its place.
func execOptions(ds *storage.Dataset, choice PlanChoice, opts ExecuteOptions) exec.Options {
	opts.Strategy, opts.Order, opts.SemiJoins = choice.Strategy, choice.Order, choice.SemiJoins
	if opts.Artifacts == nil {
		opts.Artifacts = choice.Tables.artifacts(ds, opts.Selections)
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
