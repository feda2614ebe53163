package workload

import (
	"fmt"
	"math/rand"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// Config controls dataset generation for a join tree.
type Config struct {
	// DriverRows is the driver relation cardinality (the paper uses
	// 10^4 to 10^6).
	DriverRows int
	// Seed makes generation deterministic.
	Seed int64
	// Fanouts optionally overrides the fanout distribution per edge
	// (keyed by child node); edges not present use Deterministic with
	// the tree's Fo. This is how the Section 5.6 skew experiments vary
	// the per-tuple fanout while keeping the mean.
	Fanouts map[plan.NodeID]FanoutDist
	// DanglingFraction adds this fraction of extra child rows whose
	// keys match no parent tuple, exercising dangling-tuple elimination
	// (0 = none; the cost model's cardinality assumption holds exactly
	// at 0).
	DanglingFraction float64
}

// Generate builds a dataset realizing the tree's per-edge match
// probabilities and fanouts exactly (in expectation): each parent row
// carries a unique key per child edge; with probability m the child
// receives fanout-many rows with that key. Relation sizes therefore
// follow |R_c| = |R_p| * m * E[fo], matching cost.Model.RelCard.
//
// Every relation has an "id" column (dense row number), a "v" payload
// column, one key column per child edge named k<child>, and (for
// non-root relations) the parent-edge key column shared with the
// parent relation.
func Generate(t *plan.Tree, cfg Config) *storage.Dataset {
	if cfg.DriverRows <= 0 {
		panic("workload: Config.DriverRows must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds := storage.NewDataset(t)

	// nextKey hands out globally unique join-key values so edges never
	// interfere with each other.
	var nextKey int64
	newKey := func() int64 {
		nextKey++
		return nextKey
	}

	fanoutOf := func(c plan.NodeID) FanoutDist {
		if d, ok := cfg.Fanouts[c]; ok {
			return d
		}
		return Deterministic{Fo: t.Stats(c).Fo}
	}

	// Build top-down: each relation's rows must exist before its
	// children are generated from them.
	rels := make(map[plan.NodeID]*storage.Relation, t.Len())
	for _, id := range t.TopDown() {
		cols := []string{"id", "v"}
		if id != plan.Root {
			cols = append(cols, keyColumn(id))
		}
		for _, c := range t.Children(id) {
			cols = append(cols, keyColumn(c))
		}
		rels[id] = storage.NewRelation(t.Name(id), cols...)
	}

	// Driver rows.
	driver := rels[plan.Root]
	rootChildren := t.Children(plan.Root)
	rowBuf := make([]int64, 2+len(rootChildren))
	for i := 0; i < cfg.DriverRows; i++ {
		rowBuf[0] = int64(i)
		rowBuf[1] = rng.Int63()
		for j := range rootChildren {
			rowBuf[2+j] = newKey()
		}
		driver.AppendRow(rowBuf...)
	}

	// Children, top-down.
	for _, id := range t.TopDown() {
		for _, c := range t.Children(id) {
			generateChild(t, rels, id, c, fanoutOf(c), cfg.DanglingFraction, rng, newKey)
		}
	}

	for _, id := range t.TopDown() {
		key := ""
		if id != plan.Root {
			key = keyColumn(id)
		}
		ds.SetRelation(id, rels[id], key)
	}
	if err := ds.Validate(); err != nil {
		panic(fmt.Sprintf("workload: generated invalid dataset: %v", err))
	}
	return ds
}

// keyColumn names the equi-join column for the edge parent(c) -> c.
func keyColumn(c plan.NodeID) string { return fmt.Sprintf("k%d", c) }

// generateChild populates child relation c from its parent's rows.
func generateChild(t *plan.Tree, rels map[plan.NodeID]*storage.Relation,
	parent, c plan.NodeID, fd FanoutDist, dangling float64,
	rng *rand.Rand, newKey func() int64) {

	parentRel := rels[parent]
	childRel := rels[c]
	m := t.Stats(c).M
	parentKeys := parentRel.Column(keyColumn(c))
	grandChildren := t.Children(c)

	rowBuf := make([]int64, 3+len(grandChildren))
	var id int64
	appendRows := func(key int64, n int) {
		for k := 0; k < n; k++ {
			rowBuf[0] = id
			id++
			rowBuf[1] = rng.Int63()
			rowBuf[2] = key
			for j := range grandChildren {
				rowBuf[3+j] = newKey()
			}
			childRel.AppendRow(rowBuf...)
		}
	}

	for _, key := range parentKeys {
		if rng.Float64() >= m {
			continue
		}
		appendRows(key, fd.Sample(rng))
	}
	if dangling > 0 {
		extra := int(float64(childRel.NumRows()) * dangling)
		for i := 0; i < extra; i++ {
			appendRows(newKey(), 1)
		}
	}
}

// Measure scans a generated (or any) dataset and returns the measured
// per-edge statistics: the match probability and conditional fanout for
// probing from each parent into each child, exact to 16 384 live parent
// rows, an 8 192-row systematic sample above. These are the "actual
// selectivities" of the robustness experiments.
func Measure(ds *storage.Dataset) map[plan.NodeID]plan.EdgeStats {
	return MeasureCached(ds, nil)
}

// MeasureCached is Measure with edge statistics served through cache
// (nil measures directly). Driver enumeration measures the same edge
// directions for every candidate tree; a shared cache scans the data
// once per direction. The directions the cache misses are measured in
// parallel, across GOMAXPROCS workers (see EdgeStatsCache.measure).
func MeasureCached(ds *storage.Dataset, cache *EdgeStatsCache) map[plan.NodeID]plan.EdgeStats {
	t := ds.Tree
	ids := t.NonRoot()
	edges := make([]edgeProbe, len(ids))
	for i, c := range ids {
		edges[i] = edgeProbe{t.Parent(c), c, ds.KeyColumn(c)}
	}
	measured := cache.measure(ds, edges)
	out := make(map[plan.NodeID]plan.EdgeStats, len(ids))
	for i, c := range ids {
		out[c] = measured[i]
	}
	return out
}

// MeasuredTree returns a copy of ds.Tree whose edge statistics are the
// values from Measure — exact to 16 384 live parent rows, an 8 192-row
// systematic sample above — the tree to hand to the cost model when
// validating predictions against actual executions (Fig. 14).
func MeasuredTree(ds *storage.Dataset) *plan.Tree {
	return MeasuredTreeCached(ds, nil)
}

// MeasuredTreeCached is MeasuredTree with memoized edge measurement.
func MeasuredTreeCached(ds *storage.Dataset, cache *EdgeStatsCache) *plan.Tree {
	measured := MeasureCached(ds, cache)
	return plan.Rebuild(ds.Tree, func(id plan.NodeID, old plan.EdgeStats) plan.EdgeStats {
		st := measured[id]
		if st.M <= 0 || st.M > 1 {
			st.M = old.M
		}
		if st.Fo < 1 {
			st.Fo = old.Fo
		}
		return st
	})
}
