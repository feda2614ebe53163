package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/hashtable"
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

// mutated commits one batch against ds: every relation gets a few
// appends cloned from resident rows (so they join as their sources do)
// and loses a few rows, leaving tombstones and append regions behind.
func mutated(t *testing.T, ds *storage.Dataset, seed int64) *storage.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := ds.Begin()
	for _, id := range ds.Tree.TopDown() {
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

// recorder is an exec.Artifacts that serves nothing and keeps every
// table the run builds.
type recorder struct {
	mu     sync.Mutex
	tables map[plan.NodeID]*hashtable.Table
}

func (r *recorder) Table(plan.NodeID) *hashtable.Table { return nil }
func (r *recorder) PutTable(id plan.NodeID, t *hashtable.Table) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tables[id] = t
}

// stripProvider zeroes the fields that depend on whether an artifact
// provider was in play; everything else must be bit-identical.
func stripProvider(s exec.Stats) exec.Stats {
	s.CacheHits, s.CacheMisses, s.BytesCached = 0, 0, 0
	return s
}

func isSJ(s cost.Strategy) bool { return s == cost.SJSTD || s == cost.SJCOM }

// TestPlanTimeTablesBitIdentical: executing a choice with the tables its
// statistics were measured with is indistinguishable — full Stats and
// checksum, provider counters aside — from executing it with the tables
// stripped, both equal the oracle, and every plan-time table is the
// table the executor would have built, bit for bit.
func TestPlanTimeTablesBitIdentical(t *testing.T) {
	v0 := categorized(600, 5)
	snaps := map[string]*storage.Dataset{"v0": v0, "mutated": mutated(t, v0, 6)}
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
			if got, want := choice.Tables.Len(), tr.Len()-1; got != want {
				t.Fatalf("%s %v: choice carries %d tables, want %d", snapName, s, got, want)
			}
			stripped := choice
			stripped.Tables = nil

			// Every table the executor builds for an unselected relation
			// equals the plan-time one.
			rec := &recorder{tables: make(map[plan.NodeID]*hashtable.Table)}
			if _, err := Execute(snap, stripped, ExecuteOptions{FlatOutput: true, Artifacts: rec}); err != nil {
				t.Fatal(err)
			}
			for id, built := range rec.tables {
				if choice.Tables.Table(id).Checksum() != built.Checksum() {
					t.Fatalf("%s %v: plan-time table of relation %d differs from the executor-built one", snapName, s, id)
				}
			}
			wantBuilt := tr.Len() - 1
			if isSJ(s) {
				wantBuilt = 4 // the 2-2 snowflake's childless relations
			}
			if len(rec.tables) != wantBuilt {
				t.Fatalf("%s %v: executor offered %d tables, want %d", snapName, s, len(rec.tables), wantBuilt)
			}

			for selName, sels := range selections {
				wantCount, wantSum := exec.ReferenceOpts(snap, nil, sels)
				served := int64(wantBuilt)
				for _, sel := range sels {
					if !isSJ(s) || len(tr.Children(sel.Rel)) == 0 {
						served--
					}
				}
				for _, workers := range []int{1, 2, 8} {
					name := fmt.Sprintf("%s/%v/%s/par%d", snapName, s, selName, workers)
					opts := ExecuteOptions{FlatOutput: true, Parallelism: workers, Selections: sels}
					with, err := Execute(snap, choice, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					without, err := Execute(snap, stripped, opts)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if with.CacheHits != served {
						t.Fatalf("%s: %d plan-time tables served, want %d", name, with.CacheHits, served)
					}
					if without.CacheHits != 0 || without.CacheMisses != 0 {
						t.Fatalf("%s: stripped choice reports provider traffic: %+v", name, without)
					}
					if !reflect.DeepEqual(stripProvider(with), without) {
						t.Fatalf("%s: stats differ with plan-time tables:\nwith    %+v\nwithout %+v", name, with, without)
					}
					if with.OutputTuples != wantCount || (wantCount > 0 && with.Checksum != wantSum) {
						t.Fatalf("%s: %d tuples / %#x, oracle %d / %#x", name,
							with.OutputTuples, with.Checksum, wantCount, wantSum)
					}
				}
			}
		}
	}
}

// TestPlanTimeTablesStaleSnapshot: plan-time tables are bound to the
// snapshot they were measured on. Executed against a later version, a
// rerooted dataset or a dataset appended to in place, the choice falls
// back to building — none of its tables is served — and the answer is
// the executed snapshot's own.
func TestPlanTimeTablesStaleSnapshot(t *testing.T) {
	v0 := categorized(400, 9)
	choice, err := ChoosePlan(PlanRequest{Dataset: v0, MeasureStats: true, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if choice.Tables.Len() == 0 {
		t.Fatal("choice carries no tables")
	}
	requireFresh := func(name string, ds *storage.Dataset, c PlanChoice) {
		t.Helper()
		wantCount, wantSum := exec.Reference(ds)
		for _, s := range cost.AllStrategies {
			c.Strategy = s
			st, err := Execute(ds, c, ExecuteOptions{FlatOutput: true})
			if err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			if st.CacheHits != 0 {
				t.Fatalf("%s %v: %d stale plan-time tables served", name, s, st.CacheHits)
			}
			if st.OutputTuples != wantCount || (wantCount > 0 && st.Checksum != wantSum) {
				t.Fatalf("%s %v: %d tuples / %#x, oracle %d / %#x", name, s,
					st.OutputTuples, st.Checksum, wantCount, wantSum)
			}
		}
	}

	v1 := mutated(t, v0, 10)
	c0, _ := exec.Reference(v0)
	if c1, _ := exec.Reference(v1); c1 == c0 {
		t.Fatal("mutation did not change the answer; the test proves nothing")
	}
	requireFresh("later version", v1, choice)

	// Same relations under another tree: node IDs mean other relations.
	re, _ := workload.Reroot(v0, v0.Tree.Children(plan.Root)[0])
	rechoice, err := ChoosePlan(PlanRequest{Dataset: re, MeasureStats: true, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	rechoice.Tables = choice.Tables
	requireFresh("rerooted", re, rechoice)

	// An append in place keeps the dataset pointer but not the rows. (On
	// a dataset of its own: v0's columns share storage with v1's.)
	ds := categorized(400, 9)
	choice, err = ChoosePlan(PlanRequest{Dataset: ds, MeasureStats: true, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	rel := ds.Relation(plan.NodeID(ds.Tree.Len() - 1))
	vals := make([]int64, rel.NumCols())
	for c := range vals {
		vals[c] = rel.ColumnAt(c)[0]
	}
	rel.AppendRow(vals...)
	requireFresh("appended in place", ds, choice)
}
