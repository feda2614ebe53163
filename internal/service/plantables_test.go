package service

import (
	"context"
	"reflect"
	"testing"

	"m2mjoin/internal/core"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// leafOps is a small batch against R2 (an inner relation) and one
// childless relation: two appends cloned from resident rows and a
// delete each, so both a reduced and an unreduced SJ table see a delta.
func leafOps(ds *storage.Dataset) []MutationSpec {
	var leaf plan.NodeID
	for _, id := range ds.Tree.NonRoot() {
		if len(ds.Tree.Children(id)) == 0 {
			leaf = id
			break
		}
	}
	ops := testOps(ds, 0)
	rel := ds.Relation(leaf)
	vals := make([]int64, rel.NumCols())
	for c := range vals {
		vals[c] = rel.ColumnAt(c)[0]
	}
	return append(ops,
		MutationSpec{Op: "append", Relation: rel.Name(), Values: vals},
		MutationSpec{Op: "delete", Relation: rel.Name(), Row: 2})
}

// TestServiceSJHitsCachedLeaves: an SJ template takes the tables of the
// relations it does not reduce from the artifact cache — warm from its
// first query on, identical to direct execution, and repaired across a
// commit like any other strategy's.
func TestServiceSJHitsCachedLeaves(t *testing.T) {
	svc := New(Config{Parallelism: 4, MaxConcurrent: 2})
	ds := genDataset(t, 2000, 5)
	replica := genDataset(t, 2000, 5)
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Dataset: "ds", Strategy: "SJ+COM", FlatOutput: true}

	for i := 0; i < 2; i++ {
		res, err := svc.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.CacheHits != snowflake32Leaves || res.Stats.CacheMisses != 0 {
			t.Fatalf("query %d: hits=%d misses=%d, want %d/0", i, res.Stats.CacheHits, res.Stats.CacheMisses, snowflake32Leaves)
		}
		choice, err := core.ChoosePlan(core.PlanRequest{Dataset: replica, MeasureStats: true,
			FlatOutput: true, Strategies: restrictOf(t, "SJ+COM")})
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.Execute(replica, choice, core.ExecuteOptions{FlatOutput: true, Parallelism: res.Workers})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripCache(res.Stats), stripCache(direct)) { // direct was served its plan-time tables
			t.Fatalf("query %d differs from direct execution:\nservice %+v\ndirect  %+v", i, res.Stats, direct)
		}
	}

	ops := leafOps(replica)
	mres, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if len(mres.Compacted) > 0 {
		t.Fatalf("small delta compacted %v; the repair assertion needs an uncompacted commit", mres.Compacted)
	}
	replicaV1 := applyOps(t, replica, ops)
	post, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if post.Version != 1 || post.Stats.CacheHits != snowflake32Leaves || post.Stats.CacheMisses != 0 {
		t.Fatalf("post-commit SJ query: version %d hits=%d misses=%d, want 1 %d/0 (repair covers the leaves)",
			post.Version, post.Stats.CacheHits, post.Stats.CacheMisses, snowflake32Leaves)
	}
	wantCount, wantSum := exec.Reference(replicaV1)
	if post.Stats.OutputTuples != wantCount || post.Stats.Checksum != wantSum {
		t.Fatalf("post-commit SJ answer diverged from oracle: count %d/%d checksum %x/%x",
			post.Stats.OutputTuples, wantCount, post.Stats.Checksum, wantSum)
	}
}

// TestServicePlanSeedsCacheAndPinsNothing: planning's tables go to the
// artifact cache and nowhere else. The first query of a fresh service
// builds each table once — not once to measure and once to execute —
// and afterwards every live table is charged to the byte budget: the
// stats cache holds none. A plan made after the registered snapshot was
// superseded seeds, under head's keys, the tables of the relations no
// commit has touched since.
func TestServicePlanSeedsCacheAndPinsNothing(t *testing.T) {
	ctx := context.Background()
	req := Request{Dataset: "ds", Strategy: "COM", FlatOutput: true}
	// builds counts the service's tables built so far: the plan-time
	// measurement builds (one per edge-statistics miss) and the ones its
	// executor built after a cache miss.
	builds := func(svc *Service) int64 {
		e := svc.entry("ds")
		e.planMu.Lock()
		measured := int64(e.statsCache.Misses())
		e.planMu.Unlock()
		return measured + artifactBuilds(t, svc, "build")
	}
	requireNothingPinned := func(svc *Service) {
		t.Helper()
		e := svc.entry("ds")
		e.planMu.Lock()
		defer e.planMu.Unlock()
		if len(e.plans) == 0 {
			t.Fatal("no plan memoized")
		}
		for _, snap := range []*storage.Dataset{e.ds, e.head.Load()} {
			for id, tbl := range e.statsCache.Tables(snap) {
				if tbl != nil {
					t.Fatalf("stats cache pins the table of relation %d", id)
				}
			}
		}
	}

	ds := genDataset(t, 1500, 3)
	nonRoot := int64(ds.Tree.Len() - 1)
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	first, err := svc.Query(ctx, req)
	if n := builds(svc); err != nil || n != nonRoot {
		t.Fatalf("first query made %d builds, want %d (one per non-root relation); err %v", n, nonRoot, err)
	}
	if first.Stats.CacheHits != nonRoot || first.Stats.CacheMisses != 0 {
		t.Fatalf("first query: hits=%d misses=%d, want %d/0", first.Stats.CacheHits, first.Stats.CacheMisses, nonRoot)
	}
	requireNothingPinned(svc)
	var tableBytes int64
	for _, id := range ds.Tree.NonRoot() {
		tableBytes += svc.artifactsFor(ds, svc.entry("ds"), nil).Table(id).MemoryBytes()
	}
	if st := svc.Stats().Cache; st.Entries != int(nonRoot) || st.Bytes != tableBytes {
		t.Fatalf("cache holds %d entries / %d bytes, want the %d plan-time tables / %d bytes", st.Entries, st.Bytes, nonRoot, tableBytes)
	}
	// Another template replans on the statistics alone: no new tables.
	_, err = svc.Query(ctx, Request{Dataset: "ds", Strategy: "STD"})
	if n := builds(svc) - nonRoot; err != nil || n != 0 {
		t.Fatalf("second template made %d builds, want 0; err %v", n, err)
	}
	requireNothingPinned(svc)

	// Head moved before the first plan: the plan measures v0, and head
	// is seeded the tables of the relations testOps leaves untouched.
	// Only R2's is built again, at head.
	late := New(Config{Parallelism: 2, MaxConcurrent: 2})
	lateDS := genDataset(t, 1500, 3)
	if _, err := late.RegisterDataset("ds", lateDS); err != nil {
		t.Fatal(err)
	}
	ops := testOps(lateDS, 0)
	if _, err := late.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops}); err != nil {
		t.Fatal(err)
	}
	res, err := late.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Stats.CacheHits != nonRoot-1 || res.Stats.CacheMisses != 1 {
		t.Fatalf("first query after a commit: version %d hits=%d misses=%d, want 1 %d/1",
			res.Version, res.Stats.CacheHits, res.Stats.CacheMisses, nonRoot-1)
	}
	if n := builds(late); n != nonRoot+1 {
		t.Fatalf("late plan and query made %d builds, want %d (v0's tables once, R2's at head)", n, nonRoot+1)
	}
	wantCount, wantSum := exec.Reference(applyOps(t, genDataset(t, 1500, 3), ops))
	if res.Stats.OutputTuples != wantCount || res.Stats.Checksum != wantSum {
		t.Fatalf("late query: %d tuples / %x, oracle %d / %x", res.Stats.OutputTuples, res.Stats.Checksum, wantCount, wantSum)
	}
	headFP := late.entry("ds").head.Load().VersionFingerprint()
	late.cache.mu.Lock()
	for key := range late.cache.entries {
		if key.dataset != headFP {
			t.Errorf("cache holds %+v: a key of the superseded snapshot", key)
		}
	}
	late.cache.mu.Unlock()
	requireNothingPinned(late)
}
