package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/telemetry"
	"m2mjoin/internal/workload"
)

// TestRunShardedEmitsGlobalRows: CollectOutput through the scatter
// layer must deliver the same tuple multiset as unsharded execution —
// shards run the parent snapshot, so tuples carry its row coordinates.
func TestRunShardedEmitsGlobalRows(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	tr := plan.Snowflake(2, 2, plan.UniformStats(rng, 0.6, 0.9, 1, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 400, Seed: 3})
	order := plan.Order(tr.NonRoot())

	collect := func(run func(Options) (Stats, error)) [][]int32 {
		var out [][]int32
		_, err := run(Options{
			Strategy: cost.COM, Order: order, FlatOutput: true, Parallelism: 2,
			CollectOutput: func(rows []int32) { out = append(out, rows) },
		})
		if err != nil {
			t.Fatal(err)
		}
		sort.Slice(out, func(i, j int) bool {
			for k := range out[i] {
				if out[i][k] != out[j][k] {
					return out[i][k] < out[j][k]
				}
			}
			return false
		})
		return out
	}

	base := collect(func(o Options) (Stats, error) { return Run(ds, o) })
	if len(base) == 0 {
		t.Fatal("degenerate test: no output")
	}
	shards, err := shard.Partition(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(func(o Options) (Stats, error) { return RunSharded(shards, o) })
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("sharded output multiset diverges: %d vs %d tuples", len(got), len(base))
	}
}

// TestRunShardedEmptyShards: more shards than driver rows leaves some
// shards empty; they must execute as zero-contribution members.
func TestRunShardedEmptyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	tr := plan.Snowflake(2, 2, plan.UniformStats(rng, 0.8, 0.9, 1, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 5, Seed: 4})
	order := plan.Order(tr.NonRoot())
	base, err := Run(ds, Options{Strategy: cost.SJCOM, Order: order, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	shards, err := shard.Partition(ds, 16)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := RunSharded(shards, Options{Strategy: cost.SJCOM, Order: order, FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged, base) {
		t.Fatalf("empty-shard merge diverges:\n got %+v\nwant %+v", merged, base)
	}
}

// TestRunShardedShardFailureFailsFast: an injected fault in one shard's
// probe loop fails the whole in-process scatter (degraded gathering is
// the serving tier's job, not this layer's).
func TestRunShardedShardFailureFailsFast(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	tr := plan.Snowflake(2, 2, plan.UniformStats(rng, 0.6, 0.9, 1, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 600, Seed: 5})
	order := plan.Order(tr.NonRoot())
	shards, err := shard.Partition(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteProbeChunk, Mode: faultinject.ModeError, Every: 2,
	})
	defer faultinject.Disable()
	_, err = RunSharded(shards, Options{Strategy: cost.STD, Order: order, FlatOutput: true})
	if err == nil {
		t.Fatal("want failure when a shard faults")
	}
	if !faultinject.IsInjected(err) {
		t.Fatalf("error lost the injected cause: %v", err)
	}
}

// TestBuildSideMustFit: a build side stands in only for the run it was
// reduced for — an SJ strategy over the same snapshot, selections and
// semi-join orders — and a non-SJ strategy has none to reduce. A run it
// fits, whole-driver or shard, adopts its phase-1 counters instead of
// reducing again.
func TestBuildSideMustFit(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	tr := plan.Snowflake(2, 2, plan.UniformStats(rng, 0.6, 0.9, 1, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 300, Seed: 6})
	other := workload.Generate(tr, workload.Config{DriverRows: 300, Seed: 6})
	opts := Options{Strategy: cost.SJCOM, Order: plan.Order(tr.NonRoot()), FlatOutput: true}
	if _, err := ReduceBuildSide(ds, Options{Strategy: cost.COM, Order: opts.Order}); err == nil {
		t.Error("COM reduced a build side")
	}
	build := must(ReduceBuildSide(ds, opts))
	footprint := int64(ds.Relation(plan.Root).NumRows()+63) / 64 * 8
	for _, tbl := range build.tables[1:] {
		footprint += tbl.MemoryBytes()
	}
	if got := build.Stats().BytesCached; got != footprint {
		t.Errorf("build side reports a %d B footprint, its tables and a driver mask take %d B", got, footprint)
	}
	misfits := map[string]func(o *Options) *storage.Dataset{
		"strategy": func(o *Options) *storage.Dataset { o.Strategy = cost.BVPCOM; return ds },
		"snapshot": func(o *Options) *storage.Dataset { return other },
		"selection": func(o *Options) *storage.Dataset {
			o.Selections = []Selection{{Rel: 1, Column: "id", Value: 3}}
			return ds
		},
		"semi-join order": func(o *Options) *storage.Dataset {
			o.SemiJoins = map[plan.NodeID][]plan.NodeID{plan.Root: {2, 1}}
			return ds
		},
	}
	for name, misfit := range misfits {
		o := opts
		o.BuildSide = build
		if _, err := Run(misfit(&o), o); err == nil {
			t.Errorf("a build side ran under another %s", name)
		}
	}
	o := opts
	o.BuildSide = build
	want := must(Run(ds, opts))
	requireAdopted(t, "on its build side", must(Run(ds, o)), want)

	// Doctor the build side's counters: every run on it, a whole-driver
	// run and each shard, must show the edit.
	build.stats.SemiJoinProbes += 1000
	if got := must(Run(ds, o)); got.SemiJoinProbes != want.SemiJoinProbes+1000 {
		t.Errorf("a whole-driver run reduced its driver again (%d semi-join probes) instead of adopting the build side's (%d)",
			got.SemiJoinProbes, want.SemiJoinProbes+1000)
	}
	for k, sh := range must(shard.Partition(ds, 3)) {
		o.DriverRows = sh.Rows
		if got := must(Run(ds, o)); got.SemiJoinProbes != want.SemiJoinProbes+1000 {
			t.Errorf("shard %d reduced again (%d semi-join probes) instead of adopting the build side's (%d)",
				k, got.SemiJoinProbes, want.SemiJoinProbes+1000)
		}
	}
}

// TestBuildSideConcurrentDriverReduction: the driver's reduction is
// part of the build side, so a reduce-chunk fault during it fails
// ReduceBuildSide, which then returns no build side; and whole-driver
// and shard runs sharing one build side concurrently each answer as
// their cold twin. Under -race -cpu 4 the runs overlap truly in
// parallel, so a run writing to the shared build side is a reported
// race.
func TestBuildSideConcurrentDriverReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	tr := plan.Snowflake(2, 2, plan.UniformStats(rng, 0.6, 0.9, 1, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 5000, Seed: 7})
	opts := Options{Strategy: cost.SJSTD, Order: plan.Order(tr.NonRoot()), FlatOutput: true, Parallelism: 2}

	// The non-root parents' spans hit the failpoint first, so the next
	// hit is the root's first span; the trace shows the root reduction
	// had begun.
	spans := 0
	for _, p := range tr.NonRoot() {
		if len(tr.Children(p)) > 0 {
			spans += max((ds.Relation(p).NumRows()+reduceSpanRows-1)/reduceSpanRows, 1)
		}
	}
	o := opts
	o.Trace, o.TraceParent = telemetry.NewTrace(nil), telemetry.NoParent
	faultinject.Enable(faultinject.Spec{Site: faultinject.SiteReduceChunk, Mode: faultinject.ModeError, Every: uint64(spans + 1), Limit: 1})
	build, err := ReduceBuildSide(ds, o)
	faultinject.Disable()
	if !faultinject.IsInjected(err) || build != nil {
		t.Fatalf("a root reduction that faulted returned build side %v, error %v", build, err)
	}
	root := 0
	o.Trace.Finish().Each(func(_ int, sp *telemetry.SpanNode) {
		if sp.Name == "semijoin" && sp.Attrs["rel"] == int64(plan.Root) {
			root++
		}
	})
	if root != 1 {
		t.Fatalf("the fault hit before the root reduction: %d root semijoin spans", root)
	}

	want := must(Run(ds, opts))
	shards := must(shard.Partition(ds, 2))
	wantShard := make([]Stats, len(shards))
	for k, sh := range shards {
		o := opts
		o.DriverRows = sh.Rows
		wantShard[k] = must(Run(ds, o))
	}
	build = must(ReduceBuildSide(ds, opts))
	const runs = 8
	got := make([]Stats, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := opts
			o.BuildSide = build
			if i%4 == 3 {
				o.DriverRows = shards[i/4%2].Rows
			}
			got[i] = must(Run(ds, o))
		}()
	}
	wg.Wait()
	for i, st := range got {
		w := want
		if i%4 == 3 {
			w = wantShard[i/4%2]
		}
		requireAdopted(t, fmt.Sprintf("run %d", i), st, w)
	}
}
