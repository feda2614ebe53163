package service

import (
	"context"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"m2mjoin/internal/exec"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// testOps builds a small deterministic mutation batch for step: two
// rows appended to R2 (cloned from its row 0 with fresh surrogate
// ids, so they join like resident rows) and one delete. Applying the
// same steps to a replica dataset walks the identical version chain.
func testOps(ds *storage.Dataset, step int) []MutationSpec {
	id := plan.NodeID(1) // "R2" in every generated shape
	rel := ds.Relation(id)
	clone := func(n int) []int64 {
		vals := make([]int64, rel.NumCols())
		for c := 0; c < rel.NumCols(); c++ {
			vals[c] = rel.ColumnAt(c)[0]
		}
		vals[0] = int64(1<<40) + int64(step*10+n)
		return vals
	}
	return []MutationSpec{
		{Op: "append", Relation: "R2", Values: clone(0)},
		{Op: "append", Relation: "R2", Values: clone(1)},
		{Op: "delete", Relation: "R2", Row: step + 1},
	}
}

// applyOps commits a MutationSpec batch directly through the storage
// delta API — the oracle-side replay of Service.Mutate.
func applyOps(t *testing.T, ds *storage.Dataset, ops []MutationSpec) *storage.Dataset {
	t.Helper()
	d := ds.Begin()
	for _, op := range ops {
		if op.Op == "append" {
			d.Append(op.Relation, op.Values...)
		} else {
			d.Delete(op.Relation, op.Row)
		}
	}
	v, err := d.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return v.Dataset
}

// TestMutateBasicsAndValidation: a committed batch advances the
// catalog version and reports the new row layout; malformed batches
// fail as invalid without committing anything.
func TestMutateBasicsAndValidation(t *testing.T) {
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	ds := genDataset(t, 300, 5)
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	for _, bad := range []MutateRequest{
		{Dataset: "nope", Ops: []MutationSpec{{Op: "append", Relation: "R2"}}},
		{Dataset: "ds"},
		{Dataset: "ds", Ops: []MutationSpec{{Op: "append", Relation: "zz", Values: []int64{1}}}},
		{Dataset: "ds", Ops: []MutationSpec{{Op: "upsert", Relation: "R2"}}},
		{Dataset: "ds", Ops: []MutationSpec{{Op: "delete", Relation: "R2", Row: 1 << 30}}},
	} {
		if _, err := svc.Mutate(ctx, bad); err == nil {
			t.Fatalf("batch %+v committed, want invalid error", bad)
		} else if Classify(err) != ClassInvalid {
			t.Fatalf("batch %+v: class %v, want invalid", bad, Classify(err))
		}
	}
	if svc.Stats().Mutations != 0 {
		t.Fatalf("failed batches counted as mutations")
	}

	ops := testOps(ds, 0)
	res, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Applied != len(ops) {
		t.Fatalf("result %+v, want version 1 applied %d", res, len(ops))
	}
	if want := ds.Relation(plan.NodeID(1)).NumRows() + 2; res.Rows["R2"] != want {
		t.Fatalf("Rows[R2] = %d, want %d", res.Rows["R2"], want)
	}
	var info DatasetInfo
	for _, di := range svc.Datasets() {
		if di.Name == "ds" {
			info = di
		}
	}
	if info.Version != 1 {
		t.Fatalf("catalog version %d, want 1", info.Version)
	}
	if st := svc.Stats(); st.Mutations != 1 {
		t.Fatalf("Mutations = %d, want 1", st.Mutations)
	}
}

// TestMutateRepairKeepsCacheWarm: after a small committed delta, the
// very next query — a BVP one, whose filters nothing repaired — must
// land entirely on repaired tables (zero misses, zero builds) and
// answer bit-identically to the brute-force oracle on the new version
// and to a cold service that builds that version from scratch — the
// tentpole's warm-under-writes property.
func TestMutateRepairKeepsCacheWarm(t *testing.T) {
	svc := New(Config{Parallelism: 4, MaxConcurrent: 2})
	ds := genDataset(t, 2000, 5)
	replica := genDataset(t, 2000, 5)
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	nrel := ds.Tree.Len()
	req := Request{Dataset: "ds", Strategy: "BVP+COM", FlatOutput: true}

	if _, err := svc.Query(ctx, req); err != nil {
		t.Fatal(err)
	}

	ops := testOps(replica, 0)
	mres, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	replicaV1 := applyOps(t, replica, ops)
	if len(mres.Compacted) > 0 {
		t.Fatalf("small delta compacted %v; the warm-repair assertion needs an uncompacted commit", mres.Compacted)
	}
	// Every cached table of v0 — one per non-root relation — must have
	// been carried onto v1.
	if want := nrel - 1; mres.Repaired != want {
		t.Fatalf("Repaired = %d, want %d", mres.Repaired, want)
	}

	before := artifactBuilds(t, svc, "build")
	warm, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Version != 1 {
		t.Fatalf("post-commit query ran on version %d, want 1", warm.Version)
	}
	builds := artifactBuilds(t, svc, "build") - before
	if want := tableCount("BVP+COM", nrel); warm.Stats.CacheHits != want || warm.Stats.CacheMisses != 0 || builds != 0 {
		t.Fatalf("post-commit query: hits=%d misses=%d builds=%d, want %d/0/0 (repair missed)",
			warm.Stats.CacheHits, warm.Stats.CacheMisses, builds, want)
	}
	// A service that never saw version 0's cache builds every table of
	// version 1 cold and derives every filter from those.
	coldSvc := New(Config{Parallelism: 4, MaxConcurrent: 2})
	if _, err := coldSvc.RegisterDataset("ds", genDataset(t, 2000, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := coldSvc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops}); err != nil {
		t.Fatal(err)
	}
	cold, err := coldSvc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Version != 1 || cold.Stats.CacheMisses != tableCount("BVP+COM", nrel) {
		t.Fatalf("cold service: version %d, %d misses; want a from-scratch run of version 1", cold.Version, cold.Stats.CacheMisses)
	}
	if !reflect.DeepEqual(stripCache(warm.Stats), stripCache(cold.Stats)) {
		t.Fatalf("post-commit stats differ from a cold service's:\nwarm %+v\ncold %+v", warm.Stats, cold.Stats)
	}
	wantCount, wantSum := exec.Reference(replicaV1)
	if warm.Stats.OutputTuples != wantCount || warm.Stats.Checksum != wantSum {
		t.Fatalf("repaired-artifact answer diverged from oracle: count %d/%d checksum %x/%x",
			warm.Stats.OutputTuples, wantCount, warm.Stats.Checksum, wantSum)
	}
	if st := svc.Stats(); st.Repairs != int64(mres.Repaired) {
		t.Fatalf("Stats.Repairs = %d, want %d", st.Repairs, mres.Repaired)
	}
}

// TestMutateSnapshotIsolationRace: queries racing a stream of commits
// must each observe exactly one version's answer — every result's
// checksum must match the oracle for the version number the result
// reports. Run under -race in CI.
func TestMutateSnapshotIsolationRace(t *testing.T) {
	svc := New(Config{Parallelism: 2, MaxConcurrent: 8})
	ds := genDataset(t, 800, 9)
	replica := genDataset(t, 800, 9)
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Precompute the oracle answer for every version of the chain.
	const versions = 4
	type answer struct {
		count int64
		sum   uint64
	}
	expected := make(map[uint64]answer, versions+1)
	c0, s0 := exec.Reference(replica)
	expected[0] = answer{c0, s0}
	chain := []*storage.Dataset{replica}
	for v := 1; v <= versions; v++ {
		next := applyOps(t, chain[v-1], testOps(chain[v-1], v-1))
		chain = append(chain, next)
		c, s := exec.Reference(next)
		expected[uint64(v)] = answer{c, s}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan string, 64)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := Request{Dataset: "ds", Strategy: "COM", FlatOutput: true}
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := svc.Query(ctx, req)
				if err != nil {
					select {
					case errCh <- "query: " + err.Error():
					default:
					}
					return
				}
				want, ok := expected[res.Version]
				if !ok {
					select {
					case errCh <- "unknown version in result":
					default:
					}
					return
				}
				if res.Stats.OutputTuples != want.count || res.Stats.Checksum != want.sum {
					select {
					case errCh <- "result does not match its own version's oracle":
					default:
					}
					return
				}
			}
		}()
	}
	for v := 1; v <= versions; v++ {
		if _, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: testOps(chain[v-1], v-1)}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case msg := <-errCh:
		t.Fatal(msg)
	default:
	}
}

// TestMutateRetentionPurgesSupersededVersions pins the retention
// window: artifact keys survive for the current and previous version
// only — after the second commit, every version-0 key is gone from the
// cache while the newest version's repaired keys remain.
func TestMutateRetentionPurgesSupersededVersions(t *testing.T) {
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	ds := genDataset(t, 1000, 7)
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v0fp := svc.entry("ds").fp

	req := Request{Dataset: "ds", Strategy: "COM", FlatOutput: true}
	if _, err := svc.Query(ctx, req); err != nil {
		t.Fatal(err)
	}
	keysWith := func(fp uint64) int {
		svc.cache.mu.Lock()
		defer svc.cache.mu.Unlock()
		n := 0
		for key := range svc.cache.entries {
			if key.dataset == fp {
				n++
			}
		}
		return n
	}
	if keysWith(v0fp) == 0 {
		t.Fatal("cold query cached nothing under v0")
	}

	m1, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: testOps(ds, 0)})
	if err != nil {
		t.Fatal(err)
	}
	// Window is {v0, v1}: v0 keys must still be resident (in-flight
	// v0 queries may still be re-warming from them).
	if keysWith(v0fp) == 0 {
		t.Fatal("v0 keys purged while still inside the retention window")
	}
	m2, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: []MutationSpec{
		{Op: "delete", Relation: "R2", Row: 0},
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Window is {v1, v2}: v0 keys must be gone, v2's repaired keys live.
	if n := keysWith(v0fp); n != 0 {
		t.Fatalf("%d v0 keys still resident after falling out of the retention window", n)
	}
	if keysWith(m1.Fingerprint) == 0 || keysWith(m2.Fingerprint) == 0 {
		t.Fatal("retention purged versions still inside the window")
	}
	warm, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Version != 2 || warm.Stats.CacheMisses != 0 {
		t.Fatalf("post-purge query: version %d misses %d, want 2/0", warm.Version, warm.Stats.CacheMisses)
	}
}

// TestRetiredSnapshotOffersNothing: a query pinned to snapshot v0 that is
// still building a table when two commits retire v0 — its keys purged —
// must not re-insert under v0's fingerprint when it finishes: nothing
// would ever purge those entries again. The query is held before its
// first build (a selection-shaped table, which neither planning nor
// repair ever caches) by the build-relation delay failpoint.
func TestRetiredSnapshotOffersNothing(t *testing.T) {
	svc := New(Config{Parallelism: 1, MaxConcurrent: 2})
	ds := genDataset(t, 1000, 7)
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	v0fp := svc.entry("ds").fp
	req := Request{Dataset: "ds", Strategy: "COM", FlatOutput: true}
	if _, err := svc.Query(ctx, req); err != nil { // memoize the plan: no measuring builds later
		t.Fatal(err)
	}

	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteBuildRelation, Mode: faultinject.ModeDelay, Every: 1, Limit: 1,
		Delay: 500 * time.Millisecond,
	})
	defer faultinject.Disable()
	held := func() bool { return faultinject.Stats()[faultinject.SiteBuildRelation].Fires == 1 }

	child := ds.Tree.NonRoot()[0]
	req.Selections = []SelectionSpec{{Relation: ds.Tree.Name(child), Column: "id", Value: 3}}
	type answer struct {
		res Result
		err error
	}
	done := make(chan answer, 1)
	go func() {
		res, err := svc.Query(ctx, req)
		done <- answer{res, err}
	}()
	for !held() {
		time.Sleep(time.Millisecond)
	}
	for step := 0; step < 2; step++ {
		if _, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: []MutationSpec{
			{Op: "delete", Relation: "R2", Row: step},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
		t.Fatal("the held query finished before the commits retired its snapshot; the delay is too short")
	default:
	}
	a := <-done
	if a.err != nil {
		t.Fatal(a.err)
	}
	if a.res.Version != 0 {
		t.Fatalf("held query answered from version %d, want its pinned 0", a.res.Version)
	}
	svc.cache.mu.Lock()
	defer svc.cache.mu.Unlock()
	for key := range svc.cache.entries {
		if key.dataset == v0fp {
			t.Errorf("retired v0 re-entered the cache: %+v", key)
		}
	}
}

// TestCacheBytesAccounting pins the CacheStats.Bytes contract: it
// counts exactly the resident artifacts' own heap footprints and is
// unmoved by planning (the catalog's memoized plan choices and edge
// statistics are deliberately excluded — see CacheStats).
func TestCacheBytesAccounting(t *testing.T) {
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	if _, err := svc.RegisterDataset("ds", genDataset(t, 1500, 3)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, strat := range []string{"STD", "BVP+COM", ""} {
		if _, err := svc.Query(ctx, Request{Dataset: "ds", Strategy: strat, FlatOutput: true}); err != nil {
			t.Fatal(err)
		}
	}
	residentSum := func() int64 {
		svc.cache.mu.Lock()
		defer svc.cache.mu.Unlock()
		var sum int64
		for _, el := range svc.cache.entries {
			sum += el.Value.(*cacheEntry).table.MemoryBytes()
		}
		return sum
	}
	st := svc.cache.stats()
	if sum := residentSum(); st.Bytes != sum || st.Bytes == 0 {
		t.Fatalf("CacheStats.Bytes = %d, resident artifact footprints sum to %d", st.Bytes, sum)
	}
	// A warm auto-planned query exercises plan memoization and edge
	// statistics without building anything; Bytes must not move.
	before := svc.cache.stats().Bytes
	if _, err := svc.Query(ctx, Request{Dataset: "ds", FlatOutput: true}); err != nil {
		t.Fatal(err)
	}
	if after := svc.cache.stats().Bytes; after != before {
		t.Fatalf("planning moved CacheStats.Bytes: %d -> %d", before, after)
	}
}

// TestShardedMutateLockstep: after identical commits, a scatter-gather
// service must answer bit-identically to an unsharded one at every
// version — the shard partitions advance in lockstep with the parent
// chain instead of serving stale shards.
func TestShardedMutateLockstep(t *testing.T) {
	plain := New(Config{Parallelism: 4, MaxConcurrent: 2})
	sharded := New(Config{Parallelism: 4, MaxConcurrent: 2, Shard: ShardConfig{Shards: 3}})
	// Separate replicas per service: the storage commit chain is
	// single-writer per snapshot, so two services must not share one.
	if _, err := plain.RegisterDataset("ds", genDataset(t, 1500, 21)); err != nil {
		t.Fatal(err)
	}
	if _, err := sharded.RegisterDataset("ds", genDataset(t, 1500, 21)); err != nil {
		t.Fatal(err)
	}
	opsSrc := genDataset(t, 1500, 21)
	ctx := context.Background()
	req := Request{Dataset: "ds", Strategy: "COM", FlatOutput: true}

	for step := 0; step < 3; step++ {
		base, err := plain.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sharded.Query(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if res.Version != uint64(step) || base.Version != uint64(step) {
			t.Fatalf("step %d: versions %d/%d", step, res.Version, base.Version)
		}
		if res.Shards != 3 || res.Coverage != 1 {
			t.Fatalf("step %d: want full-coverage 3-shard result, got %+v", step, res)
		}
		if got, want := stripCache(res.Stats), stripCache(base.Stats); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: sharded result diverges from unsharded:\n got %+v\nwant %+v", step, got, want)
		}
		ops := testOps(opsSrc, step)
		opsSrc = applyOps(t, opsSrc, ops)
		for _, s := range []*Service{plain, sharded} {
			if _, err := s.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedMutateLandsWarm: on a sharded service commit-time repair
// covers every shard, because shards execute the parent snapshot under
// its own artifact keys. After a warm-up and a small commit the first
// scatter must run zero phase-1 builds on any of the 4 shards and
// answer bit-identically to the brute-force oracle on the new version.
func TestShardedMutateLandsWarm(t *testing.T) {
	svc := New(Config{Parallelism: 4, MaxConcurrent: 2, Shard: ShardConfig{Shards: 4}})
	replica := genDataset(t, 2000, 5)
	if _, err := svc.RegisterDataset("ds", genDataset(t, 2000, 5)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Dataset: "ds", Strategy: "BVP+COM", FlatOutput: true}
	if _, err := svc.Query(ctx, req); err != nil {
		t.Fatal(err)
	}

	ops := testOps(replica, 0)
	mres, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	if len(mres.Compacted) > 0 {
		t.Fatalf("small delta compacted %v; the warm-repair assertion needs an uncompacted commit", mres.Compacted)
	}
	if mres.Repaired == 0 {
		t.Fatal("commit on a sharded service repaired nothing")
	}

	warm, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Version != 1 || warm.Shards != 4 || warm.Coverage != 1 {
		t.Fatalf("post-commit scatter: version %d shards %d coverage %v, want 1/4/1",
			warm.Version, warm.Shards, warm.Coverage)
	}
	if warm.Stats.CacheMisses != 0 || warm.Stats.CacheHits == 0 {
		t.Fatalf("post-commit scatter: hits=%d misses=%d, want every shard served from repaired artifacts",
			warm.Stats.CacheHits, warm.Stats.CacheMisses)
	}
	wantCount, wantSum := exec.Reference(applyOps(t, replica, ops))
	if warm.Stats.OutputTuples != wantCount || warm.Stats.Checksum != wantSum {
		t.Fatalf("post-commit scatter diverged from oracle: count %d/%d checksum %x/%x",
			warm.Stats.OutputTuples, wantCount, warm.Stats.Checksum, wantSum)
	}
}

// TestMutateOverHTTP: the /v1/mutate endpoint and the HTTP runner
// round-trip a batch and its classified failures.
func TestMutateOverHTTP(t *testing.T) {
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	ds := genDataset(t, 400, 11)
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	h := NewHTTPRunner(srv.URL)
	ctx := context.Background()

	res, err := h.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: testOps(ds, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != 1 || res.Rows["R2"] == 0 {
		t.Fatalf("HTTP mutate result %+v", res)
	}
	q, err := h.Query(ctx, Request{Dataset: "ds", Strategy: "COM", FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if q.Version != 1 {
		t.Fatalf("HTTP query version %d, want 1", q.Version)
	}
	_, err = h.Mutate(ctx, MutateRequest{Dataset: "nope", Ops: []MutationSpec{{Op: "delete", Relation: "R2"}}})
	if err == nil || Classify(err) != ClassInvalid {
		t.Fatalf("bad HTTP mutate: err %v, want classified invalid", err)
	}
}
