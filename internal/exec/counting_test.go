package exec

import (
	"reflect"
	"testing"

	"m2mjoin/internal/bitvector"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// countingReference evaluates the query of opts tuple at a time and
// counts what the paper's cost model charges each strategy for, with no
// batching, no selection masks and no factorization. It is the oracle
// for the executor's probe counters, not only for its output.
//
// Phase 1 of an SJ strategy is a naive bottom-up sweep over []bool
// masks: each parent row still live is probed against its children's
// reduced tables one child after another, in semi-join order, and dies
// at the first child without a match. Phase 2 of the flat pipeline walks
// the join order depth first: before the next join, an intermediate
// tuple probes the filters of the last-joined relation's children in
// ascending order and is dropped at the first miss; a surviving tuple
// makes one hash probe and one intermediate tuple per match. Tables are
// ChainedTables over the same masks the executor uses, and filters are
// bitvector.FromTable projections of plain builds over them.
//
// The returned Stats set OutputTuples and Checksum (the flat output's,
// whatever the strategy), SemiJoinProbes and BuildSemiJoinProbes, and,
// as a flat pipeline executes them, HashProbes, FilterProbes,
// IntermediateTuples and PerRelationProbes. requireCounts says which of
// them hold for which strategy.
func countingReference(ds *storage.Dataset, opts Options) Stats {
	t := ds.Tree
	masks := effectiveMasks(ds, selectionMasks(ds, opts.Selections))
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
					if p != plan.Root {
						st.BuildSemiJoinProbes++
					}
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
			filters[id] = bitvector.FromTable(hashtable.Build(rel, key, maskAt(masks, id)))
		}
	}

	perRel := make([]int64, t.Len())
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
		if ok {
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
// reference defines for the strategy: the output count always and the
// checksum wherever the run emits flat tuples; the semi-join probes and
// their build-side share for both SJ strategies; and every phase-2
// counter for the flat pipelines (STD, BVP+STD, SJ+STD). The factorized
// pipelines' phase-2 counts follow liveness propagation, which a
// tuple-at-a-time walk does not model.
func requireCounts(t *testing.T, label string, opts Options, got, want Stats) {
	t.Helper()
	s := opts.Strategy
	check := func(field string, g, w any) {
		t.Helper()
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s %v: %s = %v, counting reference %v", label, s, field, g, w)
		}
	}
	check("OutputTuples", got.OutputTuples, want.OutputTuples)
	if !s.Factorized() || opts.FlatOutput {
		check("Checksum", got.Checksum, want.Checksum)
	}
	if s.Reduction() == cost.SemiJoin {
		check("SemiJoinProbes", got.SemiJoinProbes, want.SemiJoinProbes)
		check("BuildSemiJoinProbes", got.BuildSemiJoinProbes, want.BuildSemiJoinProbes)
	}
	if !s.Factorized() {
		check("HashProbes", got.HashProbes, want.HashProbes)
		check("FilterProbes", got.FilterProbes, want.FilterProbes)
		check("IntermediateTuples", got.IntermediateTuples, want.IntermediateTuples)
		check("PerRelationProbes", got.PerRelationProbes, want.PerRelationProbes)
	}
}
