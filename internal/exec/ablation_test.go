package exec

import (
	"reflect"
	"testing"

	"m2mjoin/internal/cost"
)

// TestBreadthFirstExpandOption: BreadthFirstExpand is ignored, so
// setting it must change no Stats field.
func TestBreadthFirstExpandOption(t *testing.T) {
	ds := smallDataset(202, 6, 80)
	order := ds.Tree.AllOrders()[0]
	dfs, err := Run(ds, Options{Strategy: cost.COM, Order: order, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := Run(ds, Options{
		Strategy: cost.COM, Order: order, FlatOutput: true, BreadthFirstExpand: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dfs, bfs) {
		t.Fatalf("BreadthFirstExpand changed the stats:\n got %+v\nwant %+v", bfs, dfs)
	}
}

// TestAblationsMatchReferenceAcrossStrategies: with the ignored
// BreadthFirstExpand flag off and on, every COM variant matches the
// reference on random datasets.
func TestAblationsMatchReferenceAcrossStrategies(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		ds := smallDataset(seed*13+3, 5, 50)
		want, wantSum := Reference(ds)
		order := ds.Tree.AllOrders()[0]
		for _, s := range []cost.Strategy{cost.COM, cost.BVPCOM, cost.SJCOM} {
			for _, bfs := range []bool{false, true} {
				stats, err := Run(ds, Options{
					Strategy: s, Order: order, FlatOutput: true,
					BreadthFirstExpand: bfs,
				})
				if err != nil {
					t.Fatal(err)
				}
				if stats.OutputTuples != want || (want > 0 && stats.Checksum != wantSum) {
					t.Fatalf("seed %d %v bfs=%v: wrong result %d (want %d)",
						seed, s, bfs, stats.OutputTuples, want)
				}
			}
		}
	}
}
