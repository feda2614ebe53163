package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
)

// sunkCostHarness drives one service over a genDataset snowflake on
// which auto planning picks BVP+COM, and SJ+COM once SJ phase 1 is
// priced as paid. Every answer is checked against exec.ReferenceOpts
// on the head snapshot.
type sunkCostHarness struct {
	t   *testing.T
	svc *Service
	e   *datasetEntry
}

func newSunkCostHarness(t *testing.T, cfg Config) *sunkCostHarness {
	t.Helper()
	svc := New(cfg)
	if _, err := svc.RegisterDataset("ds", genDataset(t, 2000, 1)); err != nil {
		t.Fatal(err)
	}
	h := &sunkCostHarness{t: t, svc: svc, e: svc.entry("ds")}
	if cold, warm, err := svc.plan(h.e, "", true); err != nil || cold.Strategy != cost.BVPCOM || warm.Strategy != cost.SJCOM {
		t.Fatalf("auto plans %v, warm %v (%v); the test needs BVP+COM and SJ+COM", cold.Strategy, warm.Strategy, err)
	}
	return h
}

// query runs one traced flat query and checks its answer.
func (h *sunkCostHarness) query(strategy string, sels []SelectionSpec) Result {
	h.t.Helper()
	res, err := h.svc.Query(context.Background(), Request{Dataset: "ds", Strategy: strategy, FlatOutput: true, Selections: sels, Trace: true})
	if err != nil {
		h.t.Fatal(err)
	}
	esels, err := h.e.resolveSelections(sels)
	if err != nil {
		h.t.Fatal(err)
	}
	if count, sum := exec.ReferenceOpts(h.e.head.Load(), nil, esels); res.Stats.OutputTuples != count || res.Stats.Checksum != sum {
		h.t.Fatalf("%s %v: %d tuples, checksum %x; ReferenceOpts %d, %x",
			res.Strategy, sels, res.Stats.OutputTuples, res.Stats.Checksum, count, sum)
	}
	return res
}

// sj runs an SJ+COM query and requires it to reduce its own phase 1:
// it executed everything it attributes.
func (h *sunkCostHarness) sj(sels []SelectionSpec) {
	h.t.Helper()
	res := h.query("SJ+COM", sels)
	if res.Stats.Phase1Adopted || !reflect.DeepEqual(res.Stats.Executed(), res.Stats) || res.Trace.Find("build-side") == nil {
		h.t.Fatalf("SJ+COM %v on a fresh phase 1: adopted %v, build-side span %v",
			sels, res.Stats.Phase1Adopted, res.Trace.Find("build-side") != nil)
	}
}

// auto runs an auto query and requires the plan it ran: SJ+COM on an
// adopted phase 1 — no build-side span, no phase-1 counter executed —
// when warm, else BVP+COM. The Result, its trace record and the plan
// memo agree on it.
func (h *sunkCostHarness) auto(step string, sels []SelectionSpec, warm bool) {
	h.t.Helper()
	res := h.query("", sels)
	cold, warmChoice, _ := h.svc.plan(h.e, "", true)
	want := cold
	if warm {
		want = warmChoice
	}
	if res.Strategy != want.Strategy.String() || res.Order != want.Order.String() || h.svc.Traces(1)[0].Strategy != res.Strategy {
		h.t.Fatalf("%s: auto ran %s %s (trace record %s), want %v %v",
			step, res.Strategy, res.Order, h.svc.Traces(1)[0].Strategy, want.Strategy, want.Order)
	}
	ex := res.Stats.Executed()
	if res.Stats.Phase1Adopted != warm || ex.SemiJoinProbes != 0 || ex.BuildTagHits+ex.BuildTagMisses != 0 ||
		res.Trace.Find("build-side") != nil || res.Trace.Find("semijoin") != nil {
		h.t.Fatalf("%s: %s adopted %v, executed %d semi-join probes, build-side span %v",
			step, res.Strategy, res.Stats.Phase1Adopted, ex.SemiJoinProbes, res.Trace.Find("build-side") != nil)
	}
	if warm && res.Stats.SemiJoinProbes == 0 {
		h.t.Fatalf("%s: an adopted phase 1 attributes no semi-join probes", step)
	}
}

// TestAutoAdoptsResidentPhase1 is the sunk-cost rule, solo and on four
// local shards: an auto query runs the SJ+COM plan that prices phase 1
// as paid exactly while that plan's build side is resident for the
// snapshot it executes, under its own selections — after an SJ+COM
// query reduced it, not on a fresh service, and not on a snapshot a
// commit made until an SJ query reduces that one too.
func TestAutoAdoptsResidentPhase1(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newSunkCostHarness(t, Config{Parallelism: 2, MaxConcurrent: 2, Shard: ShardConfig{Shards: shards}})
			// Driver row 240 joins to 1 296 answers.
			sel := []SelectionSpec{{Relation: h.e.ds.Tree.Name(plan.Root), Column: "id", Value: 240}}
			h.auto("fresh", nil, false)
			h.auto("fresh, selected", sel, false)
			h.sj(nil)
			h.auto("after SJ+COM", nil, true)
			h.auto("after SJ+COM, selected", sel, false)
			// A twin of equal content shares the build side's key, but
			// not the snapshot it was reduced on.
			if _, err := h.svc.RegisterDataset("twin", genDataset(t, 2000, 1)); err != nil {
				t.Fatal(err)
			}
			if res, err := h.svc.Query(context.Background(), Request{Dataset: "twin", FlatOutput: true}); err != nil || res.Strategy != "BVP+COM" {
				t.Fatalf("auto on a twin of equal content ran %s (%v), want BVP+COM", res.Strategy, err)
			}
			h.sj(sel)
			h.auto("after a selected SJ+COM, selected", sel, true)
			h.auto("after a selected SJ+COM", nil, true)

			if _, err := h.svc.Mutate(context.Background(), MutateRequest{Dataset: "ds", Ops: testOps(h.e.head.Load(), 0)}); err != nil {
				t.Fatal(err)
			}
			h.auto("after a commit", nil, false)
			h.auto("after a commit, selected", sel, false)
			h.sj(nil)
			h.auto("after a commit and SJ+COM", nil, true)

			if got := sumSamples(t, scrape(t, h.svc), metricQueryDuration+"_count", map[string]string{"strategy": "SJ+COM"}); got != 3+4 {
				t.Errorf("%v queries labelled SJ+COM, want 3 SJ+COM and 4 auto", got)
			}
		})
	}
}

// TestAutoNeverAdoptsUnderSmallBudget: a cache budget one byte short of
// the build side never holds it, so auto never flips and every SJ+COM
// query reduces its own phase 1, solo and on four local shards.
func TestAutoNeverAdoptsUnderSmallBudget(t *testing.T) {
	ds := genDataset(t, 2000, 1)
	choice, err := core.ChoosePlan(core.PlanRequest{Dataset: ds, MeasureStats: true, FlatOutput: true, Strategies: []cost.Strategy{cost.SJCOM}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.ReduceBuildSide(ds, choice, core.ExecuteOptions{FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newSunkCostHarness(t, Config{Parallelism: 2, MaxConcurrent: 2, CacheBytes: b.Stats().BytesCached - 1,
				Shard: ShardConfig{Shards: shards}})
			for i := 0; i < 3; i++ {
				h.sj(nil)
				h.auto(fmt.Sprintf("round %d", i), nil, false)
			}
		})
	}
}

// TestPhase1AdoptedOverHTTP: /v1/query carries Phase1Adopted — false
// on the SJ+COM query that reduced phase 1, true on the auto query
// that adopted it.
func TestPhase1AdoptedOverHTTP(t *testing.T) {
	h := newSunkCostHarness(t, Config{Parallelism: 2, MaxConcurrent: 2})
	ts := httptest.NewServer(NewHandler(h.svc))
	defer ts.Close()
	runner := NewHTTPRunner(ts.URL)
	for _, want := range []struct {
		strategy, ran string
		adopted       bool
	}{{"SJ+COM", "SJ+COM", false}, {"", "SJ+COM", true}} {
		res, err := runner.Query(context.Background(), Request{Dataset: "ds", Strategy: want.strategy, FlatOutput: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Strategy != want.ran || res.Stats.Phase1Adopted != want.adopted {
			t.Errorf("strategy %q ran %s with Phase1Adopted %v over HTTP, want %s, %v",
				want.strategy, res.Strategy, res.Stats.Phase1Adopted, want.ran, want.adopted)
		}
	}
}

// TestAutoFlipsUnderConcurrentQueries: auto and SJ+COM queries racing
// on one service, solo and on four local shards, while a commit lands
// — auto flips as phase 1 becomes resident mid-stream, and every
// answer still equals the oracle's for the snapshot it ran on.
func TestAutoFlipsUnderConcurrentQueries(t *testing.T) {
	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			h := newSunkCostHarness(t, Config{Parallelism: 4, MaxConcurrent: 4, Shard: ShardConfig{Shards: shards}})
			want := map[uint64][2]uint64{}
			oracle := func() {
				head := h.e.head.Load()
				count, sum := exec.ReferenceOpts(head, nil, nil)
				want[head.Version()] = [2]uint64{uint64(count), sum}
			}
			oracle()
			var wg sync.WaitGroup
			type ran struct {
				auto bool
				res  Result
			}
			results := make([][]ran, 4)
			for g := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 12; i++ {
						strategy := ""
						if (g+i)%3 == 0 {
							strategy = "SJ+COM"
						}
						res, err := h.svc.Query(context.Background(), Request{Dataset: "ds", Strategy: strategy, FlatOutput: true})
						if err != nil {
							t.Error(err)
							return
						}
						results[g] = append(results[g], ran{strategy == "", res})
					}
				}()
			}
			if _, err := h.svc.Mutate(context.Background(), MutateRequest{Dataset: "ds", Ops: testOps(h.e.head.Load(), 0)}); err != nil {
				t.Fatal(err)
			}
			oracle()
			wg.Wait()
			flipped := 0
			for _, rs := range results {
				for _, r := range rs {
					res := r.res
					if w := want[res.Version]; uint64(res.Stats.OutputTuples) != w[0] || res.Stats.Checksum != w[1] {
						t.Fatalf("%s on version %d: %d tuples, checksum %x; oracle %d, %x",
							res.Strategy, res.Version, res.Stats.OutputTuples, res.Stats.Checksum, w[0], w[1])
					}
					if r.auto && res.Strategy == "SJ+COM" {
						flipped++
					}
				}
			}
			if flipped == 0 {
				t.Error("no auto query ran SJ+COM")
			}
		})
	}
}
