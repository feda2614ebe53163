package exec

import (
	"reflect"
	"sort"
	"testing"

	"m2mjoin/internal/bitvector"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// countingReference evaluates the query of opts one driver row at a
// time and counts what the paper's cost model charges each strategy
// for, with no batching and no selection masks. It is the oracle for
// the executor's probe counters, not only for its output.
//
// Phase 1 of an SJ strategy is a naive bottom-up sweep over []bool
// masks: each parent row still live is probed against its children's
// reduced tables one child after another, in semi-join order, and dies
// at the first child without a match. Tables are ChainedTables over the
// same masks the executor uses. Filters are bitvector.FromTable
// projections of the tables the executor probes: a plain build over a
// selected relation's mask, the versioned build otherwise, whose filter
// keeps a deleted base row's key until compaction.
//
// Phase 2 of the flat pipeline walks the join order depth first, tuple
// at a time: before the next join, an intermediate tuple probes the
// filters of the last-joined relation's children in ascending order and
// is dropped at the first miss; a surviving tuple makes one hash probe
// and one intermediate tuple per match. The factorized pipeline is
// comReference.
//
// The returned Stats set OutputTuples, Checksum (the flat output's,
// whatever the strategy), SemiJoinProbes, HashProbes, FilterProbes, IntermediateTuples, PerRelationProbes,
// ExpandedTuples and FactorizedRows. Residuals are not evaluated.
func countingReference(ds *storage.Dataset, opts Options) Stats {
	t := ds.Tree
	sels := selectionMasks(ds, opts.Selections)
	masks := effectiveMasks(ds, sels)
	live := make([][]bool, t.Len())
	for i := range live {
		mask := maskAt(masks, plan.NodeID(i))
		live[i] = make([]bool, ds.Relation(plan.NodeID(i)).NumRows())
		for r := range live[i] {
			live[i][r] = mask == nil || mask.Get(r)
		}
	}
	var st Stats

	if opts.Strategy.Reduction() == cost.SemiJoin {
		for _, p := range t.BottomUp() {
			children := t.Children(p)
			if o, ok := opts.SemiJoins[p]; ok {
				children = o
			}
			for _, c := range children {
				tbl := BuildChained(ds.Relation(c), ds.KeyColumn(c), boolMask(live[c]))
				keyCol := ds.Relation(p).Column(ds.KeyColumn(c))
				for r, ok := range live[p] {
					if !ok {
						continue
					}
					st.SemiJoinProbes++
					live[p][r] = tbl.Contains(keyCol[r])
				}
			}
		}
	}

	tables := make([]*ChainedTable, t.Len())
	var filters []*bitvector.Filter
	if opts.Strategy.Reduction() == cost.Bitvector {
		filters = make([]*bitvector.Filter, t.Len())
	}
	for _, id := range t.NonRoot() {
		rel, key := ds.Relation(id), ds.KeyColumn(id)
		tables[id] = BuildChained(rel, key, boolMask(live[id]))
		if filters != nil {
			tbl := hashtable.Build(rel, key, maskAt(masks, id))
			if maskAt(sels, id) == nil {
				tbl = hashtable.BuildVersioned(rel, key, ds.BaseRows(id), ds.BaseLive(id), ds.Live(id), 1, nil)
			}
			filters[id] = bitvector.FromTable(tbl)
		}
	}

	perRel := make([]int64, t.Len())
	com := comReference{ds: ds, opts: opts, tables: tables, filters: filters, st: &st, perRel: perRel}
	tuple := make([]int32, t.Len()) // canonical layout: slot = NodeID
	keyOf := func(at, c plan.NodeID) int64 {
		return ds.Relation(at).Column(ds.KeyColumn(c))[tuple[at]]
	}
	var step func(k int, at plan.NodeID)
	step = func(k int, at plan.NodeID) {
		if filters != nil {
			for _, c := range t.Children(at) {
				st.FilterProbes++
				if !filters[c].MayContain(keyOf(at, c)) {
					return
				}
			}
		}
		if k == len(opts.Order) {
			st.OutputTuples++
			st.Checksum += checksumCanonical(tuple)
			return
		}
		next := opts.Order[k]
		st.HashProbes++
		perRel[next]++
		for _, row := range tables[next].AppendMatches(nil, keyOf(t.Parent(next), next)) {
			st.IntermediateTuples++
			tuple[next] = row
			step(k+1, next)
		}
	}
	for r, ok := range live[plan.Root] {
		switch {
		case !ok:
		case opts.Strategy.Factorized():
			com.driverRow(int32(r))
		default:
			tuple[plan.Root] = int32(r)
			step(0, plan.Root)
		}
	}
	st.PerRelationProbes = make(map[plan.NodeID]int64, t.Len()-1)
	for _, id := range t.NonRoot() {
		st.PerRelationProbes[id] = perRel[id]
	}
	return st
}

// comReference is the factorized pipeline's phase 2 (§4.3), walked one
// driver row at a time: a driver row's factorized subtree shares no row
// with any other's, so what a chunk of driver rows costs is the sum of
// what each costs alone. It is written from the paper's rules, not from
// internal/factor, so a fault in the factor chunk cannot hide in it:
//
//   - A row is live when it has not been killed, its parent row is live,
//     and it keeps at least one live row in every child relation joined
//     so far. Liveness is re-derived from those rules at every question,
//     never propagated.
//   - A join on next probes once per live row of next's parent relation,
//     and every match becomes a row of next under that parent row.
//   - A filter pass over at, run on the driver before the first join and
//     on each relation right after it joins, probes each child's filter
//     in ascending child order, one row at a time, and only on the rows
//     live at that moment; a miss kills the row.
//   - A driver row still live after the last join contributes every
//     combination of live rows below it to the output: ExpandedTuples
//     and the checksum under FlatOutput, FactorizedRows (its live rows
//     across all relations) otherwise.
type comReference struct {
	ds      *storage.Dataset
	opts    Options
	tables  []*ChainedTable
	filters []*bitvector.Filter
	st      *Stats
	perRel  []int64

	// rows[id] are relation id's rows under the current driver row; nil
	// until id joins.
	rows [][]comRow
}

// comRow is one row of the current driver row's factorized subtree.
type comRow struct {
	row    int32 // base-relation row
	parent int   // index of the parent row in rows[Parent(id)]
	killed bool
}

// driverRow runs the whole factorized pipeline for driver row r.
func (c *comReference) driverRow(r int32) {
	t := c.ds.Tree
	c.rows = make([][]comRow, t.Len())
	c.rows[plan.Root] = []comRow{{row: r, parent: -1}}
	c.filterPass(plan.Root)
	for _, next := range c.opts.Order {
		if !c.live(plan.Root, 0) {
			return
		}
		p := t.Parent(next)
		keyCol := c.ds.Relation(p).Column(c.ds.KeyColumn(next))
		joined := []comRow{} // non-nil: next has joined
		for i, pr := range c.rows[p] {
			if !c.live(p, i) {
				continue
			}
			c.st.HashProbes++
			c.perRel[next]++
			for _, m := range c.tables[next].AppendMatches(nil, keyCol[pr.row]) {
				joined = append(joined, comRow{row: m, parent: i})
			}
		}
		c.rows[next] = joined
		c.filterPass(next)
	}
	if !c.live(plan.Root, 0) {
		return
	}

	// Freeze liveness, then enumerate the output.
	alive := make([][]bool, t.Len())
	var liveRows int64
	for id := range alive {
		alive[id] = make([]bool, len(c.rows[id]))
		for i := range alive[id] {
			alive[id][i] = c.live(plan.NodeID(id), i)
			if alive[id][i] {
				liveRows++
			}
		}
	}
	tuple := make([]int32, t.Len()) // canonical layout: slot = NodeID
	at := make([]int, t.Len())      // index of each slot's row in rows
	tuple[plan.Root] = r
	var count int64
	var expand func(k int)
	expand = func(k int) {
		if k == len(c.opts.Order) {
			count++
			c.st.Checksum += checksumCanonical(tuple)
			return
		}
		next := c.opts.Order[k]
		lo, hi := c.under(next, at[t.Parent(next)])
		for j := lo; j < hi; j++ {
			if alive[next][j] {
				at[next], tuple[next] = j, c.rows[next][j].row
				expand(k + 1)
			}
		}
	}
	expand(0)
	c.st.OutputTuples += count
	if c.opts.FlatOutput {
		c.st.ExpandedTuples += count
	} else {
		c.st.FactorizedRows += liveRows
	}
}

// filterPass probes at's rows against its children's filters.
func (c *comReference) filterPass(at plan.NodeID) {
	if c.filters == nil {
		return
	}
	rel := c.ds.Relation(at)
	for _, child := range c.ds.Tree.Children(at) {
		keyCol := rel.Column(c.ds.KeyColumn(child))
		for i := range c.rows[at] {
			if !c.live(at, i) {
				continue
			}
			c.st.FilterProbes++
			if !c.filters[child].MayContain(keyCol[c.rows[at][i].row]) {
				c.rows[at][i].killed = true
			}
		}
	}
}

// live reports whether row i of relation id is live: it and all its
// ancestors are supported.
func (c *comReference) live(id plan.NodeID, i int) bool {
	for {
		if !c.supported(id, i) {
			return false
		}
		if id == plan.Root {
			return true
		}
		id, i = c.ds.Tree.Parent(id), c.rows[id][i].parent
	}
}

// supported reports whether row i of relation id is unkilled and keeps
// a supported row in every child relation joined so far.
func (c *comReference) supported(id plan.NodeID, i int) bool {
	if c.rows[id][i].killed {
		return false
	}
	for _, child := range c.ds.Tree.Children(id) {
		if c.rows[child] != nil && !c.anySupported(child, i) {
			return false
		}
	}
	return true
}

// anySupported reports whether some row of relation id under parent row
// p is supported.
func (c *comReference) anySupported(id plan.NodeID, p int) bool {
	lo, hi := c.under(id, p)
	for j := lo; j < hi; j++ {
		if c.supported(id, j) {
			return true
		}
	}
	return false
}

// under returns the range [lo, hi) of relation id's rows under parent
// row p: a join appends its matches in parent order.
func (c *comReference) under(id plan.NodeID, p int) (lo, hi int) {
	rows := c.rows[id]
	lo = sort.Search(len(rows), func(j int) bool { return rows[j].parent >= p })
	for hi = lo; hi < len(rows) && rows[hi].parent == p; hi++ {
	}
	return lo, hi
}

// boolMask packs a []bool liveness mask into a storage.Bitmap.
func boolMask(live []bool) *storage.Bitmap {
	b := storage.NewEmptyBitmap(len(live))
	for r, ok := range live {
		if ok {
			b.Set(r)
		}
	}
	return b
}

// requireCounts fails t unless got, a run under opts, agrees with want,
// the countingReference of the same query, on every counter the
// reference defines: the checksum wherever the run emits flat tuples,
// and every other counter always.
func requireCounts(t *testing.T, label string, opts Options, got, want Stats) {
	t.Helper()
	s := opts.Strategy
	check := func(field string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s %v flat=%v: %s = %v, counting reference %v", label, s, opts.FlatOutput, field, g, w)
		}
	}
	check("OutputTuples", got.OutputTuples, want.OutputTuples)
	if !s.Factorized() || opts.FlatOutput {
		check("Checksum", got.Checksum, want.Checksum)
	}
	check("SemiJoinProbes", got.SemiJoinProbes, want.SemiJoinProbes)
	check("HashProbes", got.HashProbes, want.HashProbes)
	check("FilterProbes", got.FilterProbes, want.FilterProbes)
	check("IntermediateTuples", got.IntermediateTuples, want.IntermediateTuples)
	check("PerRelationProbes", got.PerRelationProbes, want.PerRelationProbes)
	check("ExpandedTuples", got.ExpandedTuples, want.ExpandedTuples)
	check("FactorizedRows", got.FactorizedRows, want.FactorizedRows)
}
