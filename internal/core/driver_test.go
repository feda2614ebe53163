package core

import (
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

func TestChooseDriverCorrectness(t *testing.T) {
	// Whatever driver wins, executing the chosen plan must reproduce
	// the original query's result (same relations, same join edges).
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 5; trial++ {
		tr := plan.RandomTree(2+rng.Intn(4), rng, plan.UniformStats(rng, 0.3, 0.9, 1, 3))
		ds := workload.Generate(tr, workload.Config{DriverRows: 150, Seed: int64(trial)})
		wantCount, wantSum := exec.Reference(ds)

		dc, err := ChooseDriver(ds, PlanRequest{FlatOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Execute(dc.Dataset, dc.Plan, ExecuteOptions{FlatOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if stats.OutputTuples != wantCount {
			t.Fatalf("trial %d driver %d: %d tuples, want %d",
				trial, dc.Driver, stats.OutputTuples, wantCount)
		}
		// The checksum is defined over the (rerooted) node IDs, which
		// differ from the original tree's; compare against the
		// rerooted dataset's own reference instead.
		refCount, refSum := exec.Reference(dc.Dataset)
		if refCount != wantCount {
			t.Fatalf("reroot changed the result: %d vs %d", refCount, wantCount)
		}
		if wantCount > 0 && stats.Checksum != refSum {
			t.Fatalf("trial %d: checksum mismatch after reroot", trial)
		}
		_ = wantSum
	}
}

func TestChooseDriverBeatsFixedDriverSometimes(t *testing.T) {
	// A chain where the annotated root is a terrible driver (huge
	// relation) and a leaf is far better: driver enumeration must not
	// pick a plan worse than the fixed-root plan.
	tr := plan.NewTree("big")
	mid := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.1, Fo: 1.5}, "mid")
	tr.AddChild(mid, plan.EdgeStats{M: 0.1, Fo: 1.5}, "small")
	ds := workload.Generate(tr, workload.Config{DriverRows: 4000, Seed: 42})

	fixed, err := ChoosePlan(PlanRequest{Dataset: ds, MeasureStats: true, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := ChooseDriver(ds, PlanRequest{FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	fixedTotal := fixed.Predicted.Total * float64(ds.Relation(plan.Root).NumRows())
	chosenTotal := dc.Plan.Predicted.Total * float64(dc.Dataset.Relation(plan.Root).NumRows())
	if chosenTotal > fixedTotal*(1+1e-9) {
		t.Errorf("driver enumeration (%v total) worse than fixed driver (%v total)",
			chosenTotal, fixedTotal)
	}
}

func TestChooseDriverNilDataset(t *testing.T) {
	if _, err := ChooseDriver(nil, PlanRequest{}); err == nil {
		t.Errorf("expected error")
	}
}

// TestChooseDriverMemoizesEdgeStats: driver enumeration over n
// candidates must scan each of the 2*(n-1) edge directions at most
// once instead of re-measuring per candidate — the reported
// EdgeMeasurements count is the cache's miss counter.
func TestChooseDriverMemoizesEdgeStats(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		n := 4 + rng.Intn(4)
		tr := plan.RandomTree(n, rng, plan.UniformStats(rng, 0.3, 0.9, 1, 3))
		ds := workload.Generate(tr, workload.Config{DriverRows: 200, Seed: int64(trial)})
		dc, err := ChooseDriver(ds, PlanRequest{FlatOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if max := 2 * (tr.Len() - 1); dc.EdgeMeasurements > max {
			t.Errorf("trial %d: %d edge measurements for %d relations, want <= %d",
				trial, dc.EdgeMeasurements, tr.Len(), max)
		}
		if dc.EdgeMeasurements == 0 {
			t.Errorf("trial %d: no measurements recorded", trial)
		}
	}
}

// TestChooseDriverServesWinnerTables: the enumeration's shared cache
// keeps the table of every direction it measured, so a non-SJ winner
// executes on its rerooted dataset without building a table.
func TestChooseDriverServesWinnerTables(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	nonSJ := []cost.Strategy{cost.STD, cost.COM, cost.BVPSTD, cost.BVPCOM}
	for trial := 0; trial < 3; trial++ {
		tr := plan.RandomTree(3+rng.Intn(4), rng, plan.UniformStats(rng, 0.3, 0.9, 1, 3))
		ds := workload.Generate(tr, workload.Config{DriverRows: 200, Seed: int64(trial)})
		dc, err := ChooseDriver(ds, PlanRequest{FlatOutput: true, Strategies: nonSJ})
		if err != nil {
			t.Fatal(err)
		}
		st, err := Execute(dc.Dataset, dc.Plan, ExecuteOptions{FlatOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(tr.Len() - 1); st.CacheHits != want || st.CacheMisses != 0 {
			t.Errorf("trial %d: driver %d %v: hits=%d misses=%d, want %d/0",
				trial, dc.Driver, dc.Plan.Strategy, st.CacheHits, st.CacheMisses, want)
		}
	}
}
