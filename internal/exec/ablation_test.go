package exec

import (
	"testing"

	"m2mjoin/internal/cost"
)

// TestBreadthFirstExpandOption: BFS expansion must reproduce the DFS
// output exactly through the engine.
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
	if dfs.OutputTuples != bfs.OutputTuples || dfs.Checksum != bfs.Checksum {
		t.Fatalf("BFS output differs: %d/%x vs %d/%x",
			bfs.OutputTuples, bfs.Checksum, dfs.OutputTuples, dfs.Checksum)
	}
	if dfs.HashProbes != bfs.HashProbes {
		t.Errorf("expansion mode changed probe counts: %d vs %d", dfs.HashProbes, bfs.HashProbes)
	}
}

// TestAblationsMatchReferenceAcrossStrategies: both expansion modes on
// random datasets, across COM variants.
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
