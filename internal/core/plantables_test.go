package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// categorized generates a 2-2 snowflake whose relations carry a
// low-cardinality "cat" column (id mod 3) for equality selections.
func categorized(rows int, seed int64) *storage.Dataset {
	rng := rand.New(rand.NewSource(seed))
	tr := plan.Snowflake(2, 2, plan.UniformStats(rng, 0.4, 0.9, 1, 4))
	src := workload.Generate(tr, workload.Config{DriverRows: rows, Seed: seed})
	ds := storage.NewDataset(tr)
	for _, id := range tr.TopDown() {
		old := src.Relation(id)
		rel := storage.NewRelation(old.Name(), append([]string{"cat"}, old.ColumnNames()...)...)
		vals := make([]int64, rel.NumCols())
		for row := 0; row < old.NumRows(); row++ {
			vals[0] = int64(row % 3)
			for c := 0; c < old.NumCols(); c++ {
				vals[c+1] = old.ColumnAt(c)[row]
			}
			rel.AppendRow(vals...)
		}
		key := ""
		if id != plan.Root {
			key = src.KeyColumn(id)
		}
		ds.SetRelation(id, rel, key)
	}
	return ds
}

// mutated commits one batch against ds: each relation of rels gets a
// few appends cloned from resident rows (so they join as their sources
// do) and loses a few rows, leaving tombstones and append regions
// behind.
func mutated(t *testing.T, ds *storage.Dataset, seed int64, rels ...plan.NodeID) *storage.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := ds.Begin()
	for _, id := range rels {
		rel := ds.Relation(id)
		n := rel.NumRows()
		for i := 0; i < 1+n/50; i++ {
			src := rng.Intn(n)
			vals := make([]int64, rel.NumCols())
			for c := range vals {
				vals[c] = rel.ColumnAt(c)[src]
			}
			d.Append(rel.Name(), vals...)
		}
		for _, row := range rng.Perm(n)[:1+n/40] {
			d.Delete(rel.Name(), row)
		}
	}
	v, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Dataset.HasDeltas() {
		t.Fatal("mutation left no delta state")
	}
	return v.Dataset
}

// stripProvider zeroes the fields that depend on whether an artifact
// provider was in play; everything else must be bit-identical.
func stripProvider(s exec.Stats) exec.Stats {
	s.CacheHits, s.CacheMisses, s.BytesCached = 0, 0, 0
	return s
}

func isSJ(s cost.Strategy) bool { return s == cost.SJSTD || s == cost.SJCOM }

// asked reports whether strategy s asks the provider for relation id's
// table: every relation but an SJ strategy's reduced ones.
func asked(s cost.Strategy, tr *plan.Tree, id plan.NodeID) bool {
	return !isSJ(s) || len(tr.Children(id)) == 0
}

// TestPlanTimeTablesBitIdentical: Execute serves a measured choice's
// plan-time tables to every relation the strategy asks for except a
// selected one, whose table has another shape; the run is otherwise
// indistinguishable — full Stats and checksum, provider counters aside
// — from one without them, and equals the oracle. (That served tables
// are the executor's own on every generated query is checkCase's
// plan-time provider; the selection rule is stamp's.)
func TestPlanTimeTablesBitIdentical(t *testing.T) {
	v0 := categorized(600, 5)
	snaps := map[string]*storage.Dataset{"v0": v0, "mutated": mutated(t, v0, 6, v0.Tree.TopDown()...)}
	tr := v0.Tree
	inner := tr.Children(plan.Root)[0]
	leaf := tr.Children(inner)[0]
	selections := map[string][]exec.Selection{
		"none":  nil,
		"leaf":  {{Rel: leaf, Column: "cat", Value: 1}},
		"inner": {{Rel: inner, Column: "cat", Value: 2}},
	}
	for snapName, snap := range snaps {
		for _, s := range cost.AllStrategies {
			choice, err := ChoosePlan(PlanRequest{Dataset: snap, MeasureStats: true,
				FlatOutput: true, Strategies: []cost.Strategy{s}})
			if err != nil {
				t.Fatal(err)
			}
			stripped := choice
			stripped.cache = nil
			for selName, sels := range selections {
				name := fmt.Sprintf("%s/%v/%s", snapName, s, selName)
				var want, served int64
				for _, id := range tr.NonRoot() {
					if asked(s, tr, id) {
						want++
						if !slices.ContainsFunc(sels, func(sel exec.Selection) bool { return sel.Rel == id }) {
							served++
						}
					}
				}
				opts := ExecuteOptions{FlatOutput: true, Parallelism: 2, Selections: sels}
				with, err := Execute(snap, choice, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				without, err := Execute(snap, stripped, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if with.CacheHits != served || with.CacheMisses != want-served {
					t.Fatalf("%s: hits=%d misses=%d, want %d/%d", name, with.CacheHits, with.CacheMisses, served, want-served)
				}
				if without.CacheHits != 0 || without.CacheMisses != 0 {
					t.Fatalf("%s: choice without a cache reports provider traffic: %+v", name, without)
				}
				if !reflect.DeepEqual(stripProvider(with), without) {
					t.Fatalf("%s: stats differ with plan-time tables:\nwith    %+v\nwithout %+v", name, with, without)
				}
				wantCount, wantSum := exec.ReferenceOpts(snap, nil, sels)
				if with.OutputTuples != wantCount || (wantCount > 0 && with.Checksum != wantSum) {
					t.Fatalf("%s: %d tuples / %#x, oracle %d / %#x", name,
						with.OutputTuples, with.Checksum, wantCount, wantSum)
				}
			}
		}
	}
}

// TestPlanTimeTablesStaleSnapshot: a choice's plan-time tables are
// served by relation state (EdgeStatsCache.Tables). Executed against a
// later version, a rerooted dataset or a dataset appended to in place,
// the choice is served exactly the tables of the relations whose state
// was measured — no touched relation, no reversed edge — and every
// answer is the executed snapshot's own.
func TestPlanTimeTablesStaleSnapshot(t *testing.T) {
	v0 := categorized(400, 9)
	choice, err := ChoosePlan(PlanRequest{Dataset: v0, MeasureStats: true, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	inner := v0.Tree.Children(plan.Root)[0]
	// requireServed executes c on ds under every strategy: the relations
	// fresh reports are served, all others built.
	requireServed := func(name string, ds *storage.Dataset, c PlanChoice, fresh func(plan.NodeID) bool) {
		t.Helper()
		wantCount, wantSum := exec.Reference(ds)
		for _, s := range cost.AllStrategies {
			c.Strategy = s
			st, err := Execute(ds, c, ExecuteOptions{FlatOutput: true})
			if err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			var want, served int64
			for _, id := range ds.Tree.NonRoot() {
				if asked(s, ds.Tree, id) {
					want++
					if fresh(id) {
						served++
					}
				}
			}
			if st.CacheHits != served || st.CacheMisses != want-served {
				t.Fatalf("%s %v: hits=%d misses=%d, want %d/%d", name, s, st.CacheHits, st.CacheMisses, served, want-served)
			}
			if st.OutputTuples != wantCount || (wantCount > 0 && st.Checksum != wantSum) {
				t.Fatalf("%s %v: %d tuples / %#x, oracle %d / %#x", name, s,
					st.OutputTuples, st.Checksum, wantCount, wantSum)
			}
		}
	}
	untouched := func(id plan.NodeID) bool { return id != inner }

	v1 := mutated(t, v0, 11, inner)
	c0, s0 := exec.Reference(v0)
	if c1, s1 := exec.Reference(v1); c1 == c0 && s1 == s0 {
		t.Fatal("mutation did not change the answer; the test proves nothing")
	}
	requireServed("later version", v1, choice, untouched)

	// Same relations under another tree: the edge between the old and
	// the new root is reversed, every other edge keeps its direction.
	re, mapping := workload.Reroot(v0, inner)
	rechoice, err := ChoosePlan(PlanRequest{Dataset: re, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	rechoice.cache = choice.cache
	reversed := mapping[plan.Root]
	requireServed("rerooted", re, rechoice, func(id plan.NodeID) bool { return id != reversed })

	// An append in place keeps the dataset, the relation and its
	// liveness but not the row count. (On a dataset of its own: v0's
	// columns share storage with v1's.)
	ds := categorized(400, 9)
	choice, err = ChoosePlan(PlanRequest{Dataset: ds, MeasureStats: true, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	c0, s0 = exec.Reference(ds)
	rel := ds.Relation(inner)
	vals := make([]int64, rel.NumCols())
	for c := range vals {
		vals[c] = rel.ColumnAt(c)[0]
	}
	rel.AppendRow(vals...)
	if c1, s1 := exec.Reference(ds); c1 == c0 && s1 == s0 {
		t.Fatal("the append did not change the answer; the test proves nothing")
	}
	requireServed("appended in place", ds, choice, untouched)
}
