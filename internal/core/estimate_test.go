package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/stats"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// TestEstimatedPlansCloseToMeasuredPlans closes the paper's loop
// end-to-end on the planner's own path: above 16 384 live parent rows
// ChoosePlan{MeasureStats} estimates an edge's (m, fo) from a systematic
// sample (Section 3.2), and the plan it picks from those estimates must
// be the plan exact statistics pick — stats.GroundTruth over the whole
// relations — executing at the same cost with the same result. Fig. 4
// says the estimates are accurate; Fig. 6 says the match-probability
// model tolerates their residual errors; this test checks the
// combination on eight random trees and on the benchmark's three serve
// datasets, all at 20 000 driver rows.
func TestEstimatedPlansCloseToMeasuredPlans(t *testing.T) {
	const driverRows = 20000
	type input struct {
		name string
		ds   *storage.Dataset
	}
	var inputs []input
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 8; trial++ {
		tr := plan.RandomTree(4+rng.Intn(4), rng, plan.UniformStats(rng, 0.2, 0.7, 1, 5))
		ds := workload.Generate(tr, workload.Config{DriverRows: driverRows, Seed: int64(trial * 7)})
		inputs = append(inputs, input{fmt.Sprintf("random%d", trial), ds})
	}
	names, trees := ledgerTrees()
	serve := 0
	for i, name := range names {
		if !strings.HasPrefix(name, "serve-") {
			continue
		}
		serve++ // the benchmark's generation seed is seed·100 + its dataset's rank
		for seed := int64(1); seed <= 3; seed++ {
			ds := workload.Generate(trees[i], workload.Config{DriverRows: driverRows, Seed: seed*100 + int64(serve)})
			inputs = append(inputs, input{fmt.Sprintf("%s seed %d", name, seed), ds})
		}
	}

	w := cost.DefaultWeights()
	var worstQ, worstRegret, worstCost float64
	for _, in := range inputs {
		ds := in.ds
		truth := plan.Rebuild(ds.Tree, func(id plan.NodeID, _ plan.EdgeStats) plan.EdgeStats {
			return stats.GroundTruth(ds.Relation(ds.Tree.Parent(id)), ds.Relation(id), ds.KeyColumn(id), nil, nil)
		})
		keys := make(map[plan.NodeID]string)
		for _, id := range truth.NonRoot() {
			keys[id] = ds.KeyColumn(id)
		}
		want, err := ChoosePlan(PlanRequest{Dataset: ds.Rebind(truth, identityMapping(truth.Len()), keys), FlatOutput: true})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		got, err := ChoosePlan(PlanRequest{Dataset: ds, MeasureStats: true, FlatOutput: true})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if got.Strategy != want.Strategy {
			t.Errorf("%s: sampled statistics chose %v, exact ones %v", in.name, got.Strategy, want.Strategy)
		}
		for _, id := range truth.NonRoot() {
			est, exact := got.Tree.Stats(id), truth.Stats(id)
			q := math.Max(qError(est.M, exact.M), qError(est.Fo, exact.Fo))
			if q > 1.05 {
				t.Errorf("%s: edge %d estimated %+v, exact %+v: q-error %.3f > 1.05", in.name, id, est, exact, q)
			}
			worstQ = math.Max(worstQ, q)
		}
		// Where the two plans' orders differ at all they are near ties:
		// every input's regret is 1.00000, so 1 % is slack enough.
		regret := cost.New(truth, w).Cost(got.Strategy, got.Order, true).Total / want.Predicted.Total
		if regret > 1.01 {
			t.Errorf("%s: the sampled plan costs %.3fx the exact plan under exact statistics", in.name, regret)
		}
		worstRegret = math.Max(worstRegret, regret)

		wantSt, err := Execute(ds, want, ExecuteOptions{FlatOutput: true})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		gotSt, err := Execute(ds, got, ExecuteOptions{FlatOutput: true})
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if gotSt.Checksum != wantSt.Checksum || gotSt.OutputTuples != wantSt.OutputTuples {
			t.Errorf("%s: sampled plan returned %d tuples checksum %#x, exact plan %d tuples checksum %#x",
				in.name, gotSt.OutputTuples, gotSt.Checksum, wantSt.OutputTuples, wantSt.Checksum)
		}
		rel := math.Abs(gotSt.WeightedCost(w)/wantSt.WeightedCost(w) - 1)
		if rel > 0.005 {
			t.Errorf("%s: sampled plan executed at weighted cost %.0f, exact plan %.0f (%.2f%% apart)",
				in.name, gotSt.WeightedCost(w), wantSt.WeightedCost(w), 100*rel)
		}
		worstCost = math.Max(worstCost, rel)
	}
	t.Logf("%d datasets: worst per-edge q-error %.4f, model regret %.5f, executed cost %.4f%% apart",
		len(inputs), worstQ, worstRegret, 100*worstCost)
}
