package exec

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/workload"
)

// TestShardMergeDeterminismMatrix is the gather-merge acceptance test:
// for every strategy, worker count and shard count, scatter-gather
// execution over a hash partition must merge to Stats (every counter,
// the per-relation breakdown, and the order-independent checksum)
// bit-identical to unsharded execution.
func TestShardMergeDeterminismMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.6, 0.9, 1, 3))
	ds := workload.Generate(tr, workload.Config{DriverRows: 3000, Seed: 7})
	order := plan.Order(tr.NonRoot())

	for _, s := range cost.AllStrategies {
		base, err := Run(ds, Options{
			Strategy: s, Order: order, FlatOutput: true, ChunkSize: 256,
		})
		if err != nil {
			t.Fatalf("%v baseline: %v", s, err)
		}
		if base.OutputTuples == 0 || base.Checksum == 0 {
			t.Fatalf("%v: degenerate baseline proves nothing", s)
		}
		for _, nShards := range []int{1, 2, 4} {
			shards, err := shard.Partition(ds, nShards)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 8} {
				merged, err := RunSharded(shards, Options{
					Strategy: s, Order: order, FlatOutput: true, ChunkSize: 256,
					Parallelism: par,
				})
				if err != nil {
					t.Fatalf("%v shards=%d par=%d: %v", s, nShards, par, err)
				}
				if !reflect.DeepEqual(merged, base) {
					t.Errorf("%v shards=%d par=%d: merged stats diverge:\n got %+v\nwant %+v",
						s, nShards, par, merged, base)
				}
			}
		}
	}
}

// TestShardMergeDeterminismMasked is the masked half of the matrix:
// pushed-down selections on the driver and on build-side relations —
// the regime where the SJ strategies start from per-relation masks —
// must still merge bit-identically at every shard count.
func TestShardMergeDeterminismMasked(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ds := selectableDataset(rng, 2400)
	selections := []Selection{
		{Rel: plan.Root, Column: "cat", Value: 1},
		{Rel: 1, Column: "cat", Value: 2},
		{Rel: 3, Column: "cat", Value: 0},
	}
	order := plan.Order{1, 2, 3}
	for _, s := range cost.AllStrategies {
		base, err := Run(ds, Options{
			Strategy: s, Order: order, FlatOutput: true, ChunkSize: 128,
			Selections: selections,
		})
		if err != nil {
			t.Fatalf("%v baseline: %v", s, err)
		}
		if base.OutputTuples == 0 {
			t.Fatalf("%v: degenerate masked baseline", s)
		}
		for _, nShards := range []int{2, 4} {
			shards, err := shard.Partition(ds, nShards)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 8} {
				merged, err := RunSharded(shards, Options{
					Strategy: s, Order: order, FlatOutput: true, ChunkSize: 128,
					Selections: selections, Parallelism: par,
				})
				if err != nil {
					t.Fatalf("%v shards=%d par=%d: %v", s, nShards, par, err)
				}
				if !reflect.DeepEqual(merged, base) {
					t.Errorf("%v masked shards=%d par=%d: merged stats diverge:\n got %+v\nwant %+v",
						s, nShards, par, merged, base)
				}
			}
		}
	}
}

// TestShardMergeDeterminismRandom is the seeded random row of the
// matrix: each case draws a strategy, a shard count, whether a root
// selection applies and a batch of driver deletes and appends, commits
// the batch, and checks the scatter over the advanced partition (and
// over a fresh one) against unsharded Run of the committed snapshot on
// the full Stats, checksum included. A failing case prints its draw.
func TestShardMergeDeterminismRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260925))
	cur := selectableDataset(rng, 1500)
	order := plan.Order{1, 2, 3}
	driver := cur.Relation(plan.Root).Name()
	for c := 0; c < 12; c++ {
		strat := cost.AllStrategies[rng.Intn(len(cost.AllStrategies))]
		nShards := []int{1, 2, 3, 4, 8}[rng.Intn(5)]
		var sels []Selection
		if rng.Intn(2) == 0 {
			sels = []Selection{{Rel: plan.Root, Column: "cat", Value: int64(rng.Intn(4))}}
		}
		before, err := shard.Partition(cur, nShards)
		if err != nil {
			t.Fatal(err)
		}
		// Driver deletes (of rows still live) and appends that clone a
		// live row's keys, so the new rows join like resident ones.
		rel, live := cur.Relation(plan.Root), cur.Live(plan.Root)
		delta := cur.Begin()
		deleted := map[int]bool{}
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			row := rng.Intn(rel.NumRows())
			if deleted[row] || (live != nil && !live.Get(row)) {
				continue
			}
			if rng.Intn(3) == 0 {
				delta.Append(driver, int64(rel.NumRows()+i), int64(rng.Intn(4)),
					rel.Column("k1")[row], rel.Column("k3")[row])
			} else {
				delta.Delete(driver, row)
				deleted[row] = true
			}
		}
		v, err := delta.Commit()
		if err != nil {
			t.Fatal(err)
		}
		cur = v.Dataset
		advanced, err := shard.Advance(before, cur, v)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := shard.Partition(cur, nShards)
		if err != nil {
			t.Fatal(err)
		}

		opts := Options{
			Strategy: strat, Order: order, FlatOutput: true, ChunkSize: 128,
			Selections: sels, Parallelism: 1 + rng.Intn(4),
		}
		base, err := Run(cur, opts)
		if err != nil {
			t.Fatal(err)
		}
		if base.OutputTuples == 0 {
			t.Fatalf("case %d: degenerate baseline proves nothing", c)
		}
		for name, shards := range map[string][]shard.Shard{"advanced": advanced, "fresh": fresh} {
			merged, err := RunSharded(shards, opts)
			if err != nil {
				t.Fatalf("case %d (%v, %d shards, sels %v) %s: %v", c, strat, nShards, sels, name, err)
			}
			if !reflect.DeepEqual(merged, base) {
				t.Errorf("case %d (%v, %d shards, sels %v, v%d) %s partition diverges:\n got %+v\nwant %+v",
					c, strat, nShards, sels, v.Dataset.Version(), name, merged, base)
			}
		}
	}
}

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

// TestRunShardedShardFailureFailsFast: an injected fault at
// exec/shard-probe fails the whole in-process scatter (degraded
// gathering is the serving tier's job, not this layer's).
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
		Site: faultinject.SiteShardProbe, Mode: faultinject.ModeError, Every: 2,
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
