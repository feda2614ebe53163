package workload

import (
	"fmt"
	"strings"

	"m2mjoin/internal/plan"
)

// namedShape is one workload dataset: a query shape (plan.ShapeByName's
// name) and its edge statistics, in the order the shape adds edges.
type namedShape struct {
	name, shape string
	stats       []plan.EdgeStats
}

// named declares the benchmark's datasets once. Edge statistics are
// constants of a workload, not functions of the seed: a seed varies
// the rows (Generate's Config.Seed), never how much work a query is, so
// runs on different seeds measure the same regime. The statistics are
// those of benchmark/datasets.go.
var named = []namedShape{
	// adhoc_blowup: Snowflake(3,2), m in [0.6,0.9], fo in [1,3]; the
	// product of m*fo over the nine edges is ~13, the flat output per
	// driver row.
	{"blowup", "snowflake32", []plan.EdgeStats{
		{M: 0.8, Fo: 2.0}, {M: 0.9, Fo: 1.5}, {M: 0.7, Fo: 2.0},
		{M: 0.7, Fo: 2.0}, {M: 0.8, Fo: 1.5}, {M: 0.9, Fo: 1.2},
		{M: 0.9, Fo: 1.5}, {M: 0.6, Fo: 2.5}, {M: 0.85, Fo: 1.4},
	}},
	// adhoc_selective: Star(6), m in [0.1,0.4], fo in [1,4]; ~0.04
	// output tuples per driver row. The match probabilities sit at the
	// top of their range and the fanouts are whole numbers so that the
	// few hundred driver rows that survive all six probes vary by a few
	// percent between seeds, not by a third.
	{"selective", "star", []plan.EdgeStats{
		{M: 0.4, Fo: 2}, {M: 0.38, Fo: 3}, {M: 0.4, Fo: 1},
		{M: 0.36, Fo: 2}, {M: 0.4, Fo: 1}, {M: 0.4, Fo: 1},
	}},
	// The three datasets of the serve mix (serve_warm_mix and
	// serve_sharded_writes).
	{"snowflake32", "snowflake32", []plan.EdgeStats{
		{M: 0.5, Fo: 2}, {M: 0.5, Fo: 2}, {M: 0.3, Fo: 3},
		{M: 0.4, Fo: 3}, {M: 0.6, Fo: 2}, {M: 0.4, Fo: 2.5},
		{M: 0.6, Fo: 1.5}, {M: 0.5, Fo: 1.5}, {M: 0.35, Fo: 4},
	}},
	{"star", "star", []plan.EdgeStats{
		{M: 0.5, Fo: 2}, {M: 0.6, Fo: 1.5}, {M: 0.4, Fo: 3},
		{M: 0.55, Fo: 2}, {M: 0.3, Fo: 4}, {M: 0.6, Fo: 2},
	}},
	{"path", "path", []plan.EdgeStats{
		{M: 0.6, Fo: 2}, {M: 0.5, Fo: 2}, {M: 0.5, Fo: 3},
		{M: 0.4, Fo: 3}, {M: 0.6, Fo: 1.5}, {M: 0.5, Fo: 2.5},
	}},
}

// Named returns a new join tree of the named benchmark dataset —
// "blowup", "selective", "snowflake32", "star" or "path" — carrying
// its fixed edge statistics. Rows and seed are the caller's: pass the
// tree to Generate.
func Named(name string) (*plan.Tree, error) {
	var names []string
	for _, n := range named {
		if n.name == name {
			i := 0
			return plan.ShapeByName(n.shape, func() plan.EdgeStats {
				i++
				return n.stats[i-1]
			})
		}
		names = append(names, n.name)
	}
	return nil, fmt.Errorf("workload: unknown dataset %q (want one of %s)", name, strings.Join(names, ", "))
}
