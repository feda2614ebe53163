package exec

import (
	"reflect"
	"sort"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// TestParallelNegativeUsesAllCPUs: Parallelism < 0 must run (using
// GOMAXPROCS workers) and produce the sequential result.
func TestParallelNegativeUsesAllCPUs(t *testing.T) {
	ds := smallDataset(9, 5, 200)
	order := ds.Tree.AllOrders()[0]
	seq, err := Run(ds, Options{Strategy: cost.COM, Order: order, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(ds, Options{Strategy: cost.COM, Order: order, FlatOutput: true,
		ChunkSize: 32, Parallelism: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("negative parallelism diverged:\n got %+v\nwant %+v", par, seq)
	}
}

// TestCollectOutputRetainsTuples is the regression test for the
// CollectOutput aliasing footgun: callers that retain the callback
// slices must see stable tuples, not a reused buffer overwritten by
// later emissions.
func TestCollectOutputRetainsTuples(t *testing.T) {
	ds := smallDataset(55, 4, 30)
	wantCount, _ := Reference(ds)
	if wantCount < 2 {
		t.Fatalf("degenerate test dataset: %d output tuples", wantCount)
	}
	var retained [][]int32
	_, err := Run(ds, Options{
		Strategy:   cost.COM,
		Order:      ds.Tree.AllOrders()[0],
		FlatOutput: true,
		CollectOutput: func(rows []int32) {
			retained = append(retained, rows) // retain, no copy
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(retained)) != wantCount {
		t.Fatalf("collected %d tuples, want %d", len(retained), wantCount)
	}
	sums := make(map[uint64]int, len(retained))
	for _, rows := range retained {
		sums[checksumCanonical(rows)]++
	}
	// Reference emits each distinct tuple once; if the executor handed
	// out a reused buffer, every retained slice would alias the final
	// tuple and the distinct count would collapse.
	if len(sums) != len(retained) {
		t.Errorf("retained tuples alias each other: %d distinct of %d", len(sums), len(retained))
	}
}

// TestCollectOutputParallel: the collected tuple multiset must be
// independent of parallelism (order is not guaranteed).
func TestCollectOutputParallel(t *testing.T) {
	ds := smallDataset(31, 5, 120)
	order := ds.Tree.AllOrders()[0]
	collect := func(par int) []uint64 {
		var sums []uint64
		_, err := Run(ds, Options{
			Strategy:    cost.BVPSTD,
			Order:       order,
			FlatOutput:  true,
			ChunkSize:   16,
			Parallelism: par,
			CollectOutput: func(rows []int32) {
				sums = append(sums, checksumCanonical(rows))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(sums, func(i, j int) bool { return sums[i] < sums[j] })
		return sums
	}
	seq := collect(1)
	par := collect(8)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel CollectOutput multiset diverged: %d vs %d tuples", len(par), len(seq))
	}
}

// TestParallelWithResidualsAndSelections: the shared residual checker
// and pushed-down selections must behave identically under the worker
// pool, across strategies and output modes.
func TestParallelWithResidualsAndSelections(t *testing.T) {
	tr := plan.NewTree("R1")
	a := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.7, Fo: 2}, "R2")
	tr.AddChild(a, plan.EdgeStats{M: 0.7, Fo: 2}, "R3")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.7, Fo: 2}, "R4")
	ds := workload.Generate(tr, workload.Config{DriverRows: 800, Seed: 21})
	residuals := []Residual{{RelA: 2, ColA: "v", RelB: 3, ColB: "v"}}
	selections := []Selection{{Rel: 1, Column: "v", Value: ds.Relation(1).Column("v")[0]}}
	order := plan.Order{1, 2, 3}

	for _, flat := range []bool{true, false} {
		for _, s := range cost.AllStrategies {
			var base Stats
			for i, par := range []int{1, 8} {
				stats, err := Run(ds, Options{
					Strategy: s, Order: order, FlatOutput: flat,
					ChunkSize: 64, Parallelism: par,
					Residuals: residuals, Selections: selections,
				})
				if err != nil {
					t.Fatalf("%v: %v", s, err)
				}
				if i == 0 {
					base = stats
				} else if !reflect.DeepEqual(stats, base) {
					t.Errorf("%v flat=%v: residual/selection stats diverge at parallelism %d:\n got %+v\nwant %+v",
						s, flat, par, stats, base)
				}
			}
		}
	}
}
