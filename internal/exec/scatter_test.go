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
