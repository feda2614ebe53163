package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// genDataset builds a deterministic snowflake32 dataset for tests.
func genDataset(t *testing.T, rows int, seed int64) *storage.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.2, 0.6, 1, 5))
	return workload.Generate(tree, workload.Config{DriverRows: rows, Seed: seed})
}

// tableCount returns the number of hash tables the cache serves for a
// strategy on the snowflake32 test datasets: one per non-root relation
// (a BVP variant's filters travel inside them); for the SJ variants the
// tables of the relations they do not reduce — the childless ones
// (reduced tables are query-local). A first query finds these already
// resident: planning offers the tables it measured the edge statistics
// with to the cache.
func tableCount(strategy string, nrel int) int64 {
	switch strategy {
	case "SJ+STD", "SJ+COM":
		return snowflake32Leaves
	}
	return int64(nrel - 1)
}

// snowflake32Leaves is the number of childless relations of genDataset's
// plan.Snowflake(3, 2): each of the driver's three children has two.
const snowflake32Leaves = 6

// stripCache zeroes the fields that legitimately differ between a cold
// and a warm run; everything else must be bit-identical.
func stripCache(s exec.Stats) exec.Stats {
	s.CacheHits, s.CacheMisses, s.BytesCached = 0, 0, 0
	return s
}

// TestWarmCacheBitIdentical is the tentpole acceptance test: for all
// six strategies at 1/2/8 workers, a warm-cache execution serves every
// shareable table from the cache (zero builds of them; SJ still builds
// its reduced tables per query) and produces Stats and checksum
// bit-identical to the cold run.
func TestWarmCacheBitIdentical(t *testing.T) {
	ds := genDataset(t, 3000, 42)
	nrel := ds.Tree.Len()
	ctx := context.Background()
	for _, strat := range []string{"STD", "COM", "BVP+STD", "BVP+COM", "SJ+STD", "SJ+COM"} {
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/par%d", strat, par), func(t *testing.T) {
				svc := New(Config{Parallelism: 8, MaxConcurrent: 1, CacheBytes: 64 << 20})
				if _, err := svc.RegisterDataset("ds", ds); err != nil {
					t.Fatal(err)
				}
				req := Request{Dataset: "ds", Strategy: strat, FlatOutput: true, Parallelism: par}
				cold, err := svc.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				warm, err := svc.Query(ctx, req)
				if err != nil {
					t.Fatal(err)
				}

				// The first query finds the tables planning measured with
				// already resident; a BVP one derives their filters, which
				// is no build and no miss.
				want := tableCount(strat, nrel)
				if cold.Stats.CacheHits != want || cold.Stats.CacheMisses != 0 {
					t.Fatalf("cold run: hits=%d misses=%d, want %d/0",
						cold.Stats.CacheHits, cold.Stats.CacheMisses, want)
				}
				if warm.Stats.CacheHits != want || warm.Stats.CacheMisses != 0 {
					t.Fatalf("warm run: hits=%d misses=%d, want %d/0 (zero phase-1 builds)",
						warm.Stats.CacheHits, warm.Stats.CacheMisses, want)
				}
				if warm.Stats.Checksum == 0 || warm.Stats.OutputTuples == 0 {
					t.Fatal("degenerate query: empty output proves nothing")
				}
				if !reflect.DeepEqual(stripCache(cold.Stats), stripCache(warm.Stats)) {
					t.Fatalf("warm stats differ from cold:\ncold %+v\nwarm %+v", cold.Stats, warm.Stats)
				}
				if warm.Workers != par {
					t.Fatalf("granted %d workers, requested cap %d", warm.Workers, par)
				}

				// Cross-check against a cache-less direct execution.
				choice, err := core.ChoosePlan(core.PlanRequest{Dataset: ds, MeasureStats: true,
					FlatOutput: true, Strategies: restrictOf(t, strat)})
				if err != nil {
					t.Fatal(err)
				}
				direct, err := core.Execute(ds, choice, core.ExecuteOptions{FlatOutput: true, Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				direct = stripCache(direct) // it was served its plan-time tables
				direct.PerRelationProbes = nil
				wcopy := stripCache(warm.Stats)
				wcopy.PerRelationProbes = nil
				if !reflect.DeepEqual(direct, wcopy) {
					t.Fatalf("service stats differ from direct execution:\ndirect %+v\nservice %+v", direct, wcopy)
				}
			})
		}
	}
}

func restrictOf(t *testing.T, strat string) []cost.Strategy {
	t.Helper()
	s, ok := cost.ParseStrategy(strat)
	if !ok {
		t.Fatalf("bad strategy %q", strat)
	}
	return []cost.Strategy{s}
}

// TestConcurrentWarmClients drives >= 8 concurrent clients against a
// warmed service: every query must be a full cache hit (zero phase-1
// builds) with the same checksum. Run under -race in CI, this is the
// acceptance criterion's concurrency half.
func TestConcurrentWarmClients(t *testing.T) {
	ds := genDataset(t, 2000, 7)
	nrel := ds.Tree.Len()
	svc := New(Config{Parallelism: 4, MaxConcurrent: 4})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Dataset: "ds", Strategy: "BVP+COM", FlatOutput: true}
	warm, err := svc.Query(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wantHits := tableCount("BVP+COM", nrel)

	const clients = 10
	const perClient = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := svc.Query(ctx, req)
				if err != nil {
					errs <- err
					return
				}
				if res.Stats.CacheHits != wantHits || res.Stats.CacheMisses != 0 {
					errs <- fmt.Errorf("hits=%d misses=%d, want %d/0", res.Stats.CacheHits, res.Stats.CacheMisses, wantHits)
					return
				}
				if res.Stats.Checksum != warm.Stats.Checksum {
					errs <- fmt.Errorf("checksum %#x != warm %#x", res.Stats.Checksum, warm.Stats.Checksum)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCacheLRUNeverExceedsBudget is the eviction property test: a
// random query stream over multiple datasets against a budget far
// smaller than the working set must evict rather than ever exceed the
// byte budget, and queries must keep succeeding.
func TestCacheLRUNeverExceedsBudget(t *testing.T) {
	dsA, dsB := genDataset(t, 1500, 10), genDataset(t, 1500, 11)

	// Size the budget from one real query's artifact set: big enough
	// that a single query can be fully cached (so hits are possible),
	// far smaller than the mixed working set (so eviction must fire).
	probe := New(Config{Parallelism: 1, MaxConcurrent: 1})
	if _, err := probe.RegisterDataset("a", dsA); err != nil {
		t.Fatal(err)
	}
	if _, err := probe.Query(context.Background(), Request{Dataset: "a", Strategy: "BVP+STD"}); err != nil {
		t.Fatal(err)
	}
	budget := 2 * probe.Stats().Cache.Bytes
	if budget == 0 {
		t.Fatal("probe query cached nothing")
	}

	svc := New(Config{CacheBytes: budget, Parallelism: 2, MaxConcurrent: 2})
	for name, ds := range map[string]*storage.Dataset{"a": dsA, "b": dsB} {
		if _, err := svc.RegisterDataset(name, ds); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"a", "b"}
	strategies := []string{"STD", "COM", "BVP+STD", "BVP+COM"}
	rng := rand.New(rand.NewSource(99))
	ctx := context.Background()
	for i := 0; i < 60; i++ {
		req := Request{
			Dataset:  names[rng.Intn(len(names))],
			Strategy: strategies[rng.Intn(len(strategies))],
		}
		if rng.Intn(2) == 0 {
			// Selections re-key artifacts per (column, value) set,
			// multiplying distinct cache entries.
			ds := svc.entry(req.Dataset).ds
			child := ds.Tree.NonRoot()[rng.Intn(ds.Tree.Len()-1)]
			req.Selections = []SelectionSpec{{
				Relation: ds.Tree.Name(child), Column: "id", Value: int64(rng.Intn(4)),
			}}
		}
		if _, err := svc.Query(ctx, req); err != nil {
			t.Fatal(err)
		}
		cs := svc.Stats().Cache
		if cs.Bytes > budget {
			t.Fatalf("query %d: cache holds %d bytes > budget %d", i, cs.Bytes, budget)
		}
		if cs.Bytes < 0 {
			t.Fatalf("query %d: negative cache bytes %d", i, cs.Bytes)
		}
	}
	cs := svc.Stats().Cache
	if cs.Evictions == 0 {
		t.Fatalf("working set never exceeded the %d-byte budget; property untested (stats %+v)", budget, cs)
	}
	if cs.Hits == 0 {
		t.Fatal("stream produced no cache hits; popularity reuse untested")
	}
}

// TestSelectionKeysSeparateArtifacts: a selection on a build relation
// must not hit artifacts built without it (wrong results otherwise),
// while repeating the same selection must hit.
func TestSelectionKeysSeparateArtifacts(t *testing.T) {
	ds := genDataset(t, 1500, 5)
	svc := New(Config{Parallelism: 1, MaxConcurrent: 1})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	child := ds.Tree.NonRoot()[0]
	sel := []SelectionSpec{{Relation: ds.Tree.Name(child), Column: "id", Value: 3}}

	base, err := svc.Query(ctx, Request{Dataset: "ds", Strategy: "COM", FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	selected, err := svc.Query(ctx, Request{Dataset: "ds", Strategy: "COM", FlatOutput: true, Selections: sel})
	if err != nil {
		t.Fatal(err)
	}
	if selected.Stats.CacheHits == tableCount("COM", ds.Tree.Len()) {
		t.Fatal("selected query fully hit artifacts built without the selection")
	}
	if selected.Stats.Checksum == base.Stats.Checksum {
		t.Fatal("selection did not change the result; test is vacuous")
	}
	again, err := svc.Query(ctx, Request{Dataset: "ds", Strategy: "COM", FlatOutput: true, Selections: sel})
	if err != nil {
		t.Fatal(err)
	}
	if again.Stats.CacheMisses != 0 {
		t.Fatalf("repeated selection rebuilt %d artifacts", again.Stats.CacheMisses)
	}
	if again.Stats.Checksum != selected.Stats.Checksum {
		t.Fatalf("warm selected checksum %#x != cold %#x", again.Stats.Checksum, selected.Stats.Checksum)
	}
}

// TestFingerprintSharingAcrossDatasets: two catalog entries with equal
// content share artifacts (the fingerprint, not the name, roots the
// key).
func TestFingerprintSharingAcrossDatasets(t *testing.T) {
	svc := New(Config{Parallelism: 1, MaxConcurrent: 1})
	if _, err := svc.RegisterDataset("one", genDataset(t, 1200, 21)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.RegisterDataset("two", genDataset(t, 1200, 21)); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := svc.Query(ctx, Request{Dataset: "one", Strategy: "STD"}); err != nil {
		t.Fatal(err)
	}
	res, err := svc.Query(ctx, Request{Dataset: "two", Strategy: "STD"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CacheMisses != 0 {
		t.Fatalf("identical-content dataset rebuilt %d artifacts", res.Stats.CacheMisses)
	}
}

// TestQueryCancellationPropagates: a cancelled client context aborts
// the query with the context sentinel, whether it is queued or
// executing.
func TestQueryCancellationPropagates(t *testing.T) {
	svc := New(Config{Parallelism: 2, MaxConcurrent: 1})
	if _, err := svc.RegisterDataset("ds", genDataset(t, 20000, 3)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := svc.Query(ctx, Request{Dataset: "ds"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
}

// TestAdmissionSplitsWorkers: grants divide the worker budget over the
// active count at admission, the concurrency bound queues the
// overflow, and queued waiters honor cancellation.
func TestAdmissionSplitsWorkers(t *testing.T) {
	a := newAdmission(8, 2)
	ctx := context.Background()
	w1, rel1, err := a.acquire(ctx)
	if err != nil || w1 != 8 {
		t.Fatalf("first grant %d (err %v), want 8", w1, err)
	}
	w2, rel2, err := a.acquire(ctx)
	if err != nil || w2 != 4 {
		t.Fatalf("second grant %d (err %v), want 4", w2, err)
	}

	// Third query must queue until a slot frees.
	got := make(chan int, 1)
	go func() {
		w3, rel3, err := a.acquire(ctx)
		if err != nil {
			got <- -1
			return
		}
		defer rel3()
		got <- w3
	}()
	select {
	case w := <-got:
		t.Fatalf("third query admitted (grant %d) despite MaxConcurrent=2", w)
	case <-time.After(50 * time.Millisecond):
	}
	rel1()
	select {
	case w := <-got:
		if w != 4 {
			t.Fatalf("post-release grant %d, want 4 (8 workers / 2 active)", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("released slot did not admit the queued query")
	}
	rel2()

	// A cancelled waiter leaves the queue with ctx's error.
	_, rel4, _ := a.acquire(ctx)
	_, rel5, _ := a.acquire(ctx)
	cctx, ccancel := context.WithCancel(context.Background())
	werr := make(chan error, 1)
	go func() {
		_, _, err := a.acquire(cctx)
		werr <- err
	}()
	time.Sleep(20 * time.Millisecond)
	ccancel()
	if err := <-werr; !errors.Is(err, context.Canceled) {
		t.Fatalf("queued waiter returned %v, want context.Canceled", err)
	}
	rel4()
	rel5()
	if n := a.activeCount(); n != 0 {
		t.Fatalf("active count %d after all releases", n)
	}
}

// TestAdmissionWaitIsBounded: a query that cannot get a slot leaves the
// queue by one of four doors, each with its own class — a full queue
// and the admission timeout shed it with a retry hint, its own context
// cancels or times it out — and none of them leaves a slot held or a
// queue position occupied.
func TestAdmissionWaitIsBounded(t *testing.T) {
	bg := context.Background()
	for _, tc := range []struct {
		name         string
		fillQueue    bool          // queue as many waiters as fit ahead of the call
		admitTimeout time.Duration // 0 keeps the service's
		deadline     time.Duration // the call's context deadline, 0 for none
		cancel       bool          // cancel the call's context once it is queued
		want         Class
		hint         bool
	}{
		{name: "admission queue full", fillQueue: true, want: ClassShed, hint: true},
		{name: "admission wait exceeded", admitTimeout: 20 * time.Millisecond, want: ClassShed, hint: true},
		{name: "cancelled while queued", cancel: true, want: ClassCanceled},
		{name: "deadline while queued", deadline: 20 * time.Millisecond, want: ClassTimeout},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newAdmission(4, 1)
			if tc.admitTimeout > 0 {
				a.admitTimeout = tc.admitTimeout
			}
			_, release, err := a.acquire(bg) // the only slot
			if err != nil {
				t.Fatal(err)
			}
			ahead := 0
			if tc.fillQueue {
				ahead = queuedPerSlot * cap(a.slots)
			}
			// untilQueued polls; a count never reached surfaces as the
			// admission timeout's class, not a hang.
			untilQueued := func(n int) {
				for stop := time.Now().Add(5 * time.Second); a.queuedCount() != n && time.Now().Before(stop); {
					time.Sleep(time.Millisecond)
				}
			}
			fillCtx, stopFill := context.WithCancel(bg)
			var fill sync.WaitGroup
			for i := 0; i < ahead; i++ {
				fill.Add(1)
				go func() {
					defer fill.Done()
					a.acquire(fillCtx)
				}()
			}
			untilQueued(ahead)

			ctx, cancel := context.WithCancel(bg)
			if tc.deadline > 0 {
				ctx, cancel = context.WithTimeout(bg, tc.deadline)
			}
			defer cancel()
			if tc.cancel {
				go func() {
					untilQueued(ahead + 1)
					cancel()
				}()
			}
			_, got, err := a.acquire(ctx)
			var qe *QueryError
			if !errors.As(err, &qe) || qe.Class != tc.want || got != nil {
				t.Fatalf("acquire = (release %v, %v), want a %v QueryError and no release", got != nil, err, tc.want)
			}
			if (qe.RetryAfter > 0) != tc.hint {
				t.Errorf("retry hint %v, want one: %v", qe.RetryAfter, tc.hint)
			}
			if n := a.activeCount(); n != 1 || len(a.slots) != 1 {
				t.Errorf("%d active, %d slots taken after the failed acquire, want the first query's only", n, len(a.slots))
			}
			stopFill()
			fill.Wait()
			if n := a.queuedCount(); n != 0 {
				t.Errorf("%d still queued", n)
			}
			release()
			if n := a.activeCount(); n != 0 {
				t.Errorf("%d active after release", n)
			}
		})
	}
}

// TestRowIDRangeGuard: a relation with more rows than a row id can
// address is refused at registration, and a mutation batch whose appends
// would grow one past the range is refused whole — both as ClassInvalid,
// both leaving the catalog as it was. The limit is math.MaxInt32 in a
// real service; the rows lower it to sit at the test dataset's largest
// relation.
func TestRowIDRangeGuard(t *testing.T) {
	ds := genDataset(t, 60, 3)
	big := plan.NodeID(0)
	for i := 1; i < ds.Tree.Len(); i++ {
		if ds.Relation(plan.NodeID(i)).NumRows() > ds.Relation(big).NumRows() {
			big = plan.NodeID(i)
		}
	}
	rel := ds.Relation(big)
	for _, tc := range []struct {
		name     string
		headroom int // limit minus the largest relation's row count
		appends  int // rows appended to that relation in one batch
		register bool
		mutate   bool
	}{
		{"register at the limit", 0, 0, true, false},
		{"register one past the limit", -1, 0, false, false},
		{"append onto the limit", 2, 2, true, true},
		{"append across the limit", 2, 3, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{})
			svc.maxRows = rel.NumRows() + tc.headroom
			_, err := svc.RegisterDataset("ds", ds)
			if (err == nil) != tc.register {
				t.Fatalf("RegisterDataset error %v, want accepted=%v", err, tc.register)
			}
			if err != nil {
				if Classify(err) != ClassInvalid || len(svc.Datasets()) != 0 {
					t.Fatalf("rejection is class %q with %d datasets registered, want invalid and none", Classify(err), len(svc.Datasets()))
				}
				return
			}
			if tc.appends == 0 {
				return
			}
			ops := make([]MutationSpec, tc.appends)
			for i := range ops {
				ops[i] = MutationSpec{Op: "append", Relation: rel.Name(), Values: make([]int64, rel.NumCols())}
			}
			res, err := svc.Mutate(context.Background(), MutateRequest{Dataset: "ds", Ops: ops})
			if (err == nil) != tc.mutate {
				t.Fatalf("Mutate error %v, want accepted=%v", err, tc.mutate)
			}
			if err == nil {
				if got := res.Rows[rel.Name()]; got != svc.maxRows {
					t.Fatalf("relation holds %d rows after the append, want the limit %d", got, svc.maxRows)
				}
				return
			}
			if info := svc.Datasets()[0]; Classify(err) != ClassInvalid || info.Version != 0 || info.TotalRows != ds.TotalRows() {
				t.Fatalf("rejection is class %q and left version %d with %d rows, want invalid and an untouched version 0 with %d",
					Classify(err), info.Version, info.TotalRows, ds.TotalRows())
			}
		})
	}
}

// TestRequestValidation covers catalog and strategy error paths.
func TestRequestValidation(t *testing.T) {
	svc := New(Config{})
	ctx := context.Background()
	if _, err := svc.Query(ctx, Request{Dataset: "nope"}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := svc.RegisterDataset("ds", genDataset(t, 500, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Query(ctx, Request{Dataset: "ds", Strategy: "HYPER"}); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	if _, err := svc.Query(ctx, Request{Dataset: "ds", Selections: []SelectionSpec{{Relation: "x", Column: "id"}}}); err == nil {
		t.Fatal("unknown selection relation accepted")
	}
	if _, err := svc.RegisterDataset("ds", genDataset(t, 500, 2)); err == nil {
		t.Fatal("duplicate dataset name accepted")
	}
}
