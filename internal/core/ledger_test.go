package core

import (
	"flag"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/plans.golden from the plans ChoosePlan returns now")

const ledgerFile = "testdata/plans.golden"

// ledgerTrees are the trees whose plans the ledger pins: the five
// statistics lists of benchmark/datasets.go, re-stated by value so the
// ledger does not move when the benchmark does, and 200 seeded random
// trees whose every M+ε stays below 1.
func ledgerTrees() (names []string, trees []*plan.Tree) {
	list := func(stats ...plan.EdgeStats) plan.StatsSource {
		i := 0
		return func() plan.EdgeStats { i++; return stats[i-1] }
	}
	add := func(name string, t *plan.Tree) {
		names, trees = append(names, name), append(trees, t)
	}
	add("blowup", plan.Snowflake(3, 2, list(
		plan.EdgeStats{M: 0.8, Fo: 2.0}, plan.EdgeStats{M: 0.9, Fo: 1.5}, plan.EdgeStats{M: 0.7, Fo: 2.0},
		plan.EdgeStats{M: 0.7, Fo: 2.0}, plan.EdgeStats{M: 0.8, Fo: 1.5}, plan.EdgeStats{M: 0.9, Fo: 1.2},
		plan.EdgeStats{M: 0.9, Fo: 1.5}, plan.EdgeStats{M: 0.6, Fo: 2.5}, plan.EdgeStats{M: 0.85, Fo: 1.4})))
	add("selective", plan.Star(6, list(
		plan.EdgeStats{M: 0.4, Fo: 2}, plan.EdgeStats{M: 0.38, Fo: 3}, plan.EdgeStats{M: 0.4, Fo: 1},
		plan.EdgeStats{M: 0.36, Fo: 2}, plan.EdgeStats{M: 0.4, Fo: 1}, plan.EdgeStats{M: 0.4, Fo: 1})))
	add("serve-snowflake32", plan.Snowflake(3, 2, list(
		plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.3, Fo: 3},
		plan.EdgeStats{M: 0.4, Fo: 3}, plan.EdgeStats{M: 0.6, Fo: 2}, plan.EdgeStats{M: 0.4, Fo: 2.5},
		plan.EdgeStats{M: 0.6, Fo: 1.5}, plan.EdgeStats{M: 0.5, Fo: 1.5}, plan.EdgeStats{M: 0.35, Fo: 4})))
	add("serve-star", plan.Star(6, list(
		plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.6, Fo: 1.5}, plan.EdgeStats{M: 0.4, Fo: 3},
		plan.EdgeStats{M: 0.55, Fo: 2}, plan.EdgeStats{M: 0.3, Fo: 4}, plan.EdgeStats{M: 0.6, Fo: 2})))
	add("serve-path", plan.CenteredPath(7, list(
		plan.EdgeStats{M: 0.6, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 3},
		plan.EdgeStats{M: 0.4, Fo: 3}, plan.EdgeStats{M: 0.6, Fo: 1.5}, plan.EdgeStats{M: 0.5, Fo: 2.5})))
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		add(fmt.Sprintf("random%03d", seed),
			plan.RandomTree(2+rng.Intn(9), rng, plan.UniformStats(rng, 0.05, 0.95, 1, 8)))
	}
	return names, trees
}

// ledgerLine renders one plan: everything but the trailing total must
// match the golden file exactly.
func ledgerLine(label string, c PlanChoice) string {
	var sj []string
	for _, p := range slices.Sorted(maps.Keys(c.SemiJoins)) {
		sj = append(sj, fmt.Sprintf("%d:%v", p, c.SemiJoins[p]))
	}
	return fmt.Sprintf("%s %v %v sj=%s total=%.12g",
		label, c.Strategy, []plan.NodeID(c.Order), strings.Join(sj, ";"), c.Predicted.Total)
}

// TestPlanLedger pins the plan ChoosePlan returns — strategy, join
// order, semi-join orders, predicted total — for every strategy, both
// order searches plan selection defaults to and both output forms, on
// the benchmark's statistics and on random trees. The golden file was
// written by the code before the cost model was rewritten as one fold;
// a total may differ from it by rounding (1e-10 relative), nothing else
// may differ at all. Regenerate with -update.
func TestPlanLedger(t *testing.T) {
	var got []string
	names, trees := ledgerTrees()
	for i, tr := range trees {
		ds := storage.NewDataset(tr)
		choose := func(label string, req PlanRequest) {
			req.Dataset = ds
			c, err := ChoosePlan(req)
			if err != nil {
				t.Fatalf("%s %s: %v", names[i], label, err)
			}
			got = append(got, ledgerLine(names[i]+" "+label, c))
		}
		for _, s := range cost.AllStrategies {
			for _, alg := range []opt.Algorithm{opt.Exhaustive, opt.GreedySurvival} {
				for _, flat := range []bool{true, false} {
					choose(fmt.Sprintf("%v/%s/flat=%v", s, strings.Fields(alg.String())[0], flat),
						PlanRequest{Strategies: []cost.Strategy{s}, Algorithm: &alg, FlatOutput: flat})
				}
			}
		}
		choose("auto", PlanRequest{FlatOutput: true})
	}

	if *updateLedger {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ledgerFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d plans, the golden file has %d", len(got), len(want))
	}
	split := func(line string) (choice string, total float64) {
		choice, num, ok := strings.Cut(line, " total=")
		total, err := strconv.ParseFloat(num, 64)
		if !ok || err != nil {
			t.Fatalf("malformed ledger line %q", line)
		}
		return choice, total
	}
	for i := range want {
		gotChoice, gotTotal := split(got[i])
		wantChoice, wantTotal := split(want[i])
		if gotChoice != wantChoice || math.Abs(gotTotal-wantTotal) > 1e-10*math.Abs(wantTotal) {
			t.Errorf("line %d:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}
