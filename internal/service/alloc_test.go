package service

import (
	"context"
	"runtime"
	"testing"
)

// TestWarmQueryAllocationBudget pins the serving-path side of the
// executor's scratch free list: a query whose plan is memoized and
// whose tables are cached allocates its request bookkeeping and the
// run's set-up, not the run's buffers — once per shard attempt on a
// sharded service. One row per case, the bound beside what the parent
// commit (fresh scratch per run and per shard) measured; each row
// fails there.
func TestWarmQueryAllocationBudget(t *testing.T) {
	ds := genDataset(t, 20000, 3)
	rows := []struct {
		name                string
		shards              int
		strategy            string
		maxBytes, maxAllocs float64
	}{
		// snowflake32 @ 20 000 driver rows.                 parent: bytes / allocs
		{"solo COM", 0, "COM", 16 << 10, 128},           // 708 KB / 306
		{"solo planner's choice", 0, "", 16 << 10, 128}, // 521 KB / 336
		// A scatter is four runs plus dispatch, gather and merge.
		{"4 shards COM", 4, "COM", 64 << 10, 400},           // 1 466 KB / 699
		{"4 shards planner's choice", 4, "", 64 << 10, 400}, // 1 094 KB / 788
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			svc := New(Config{Parallelism: 2, MaxConcurrent: 2, Shard: ShardConfig{Shards: tc.shards}})
			if _, err := svc.RegisterDataset("ds", ds); err != nil {
				t.Fatal(err)
			}
			req := Request{Dataset: "ds", Strategy: tc.strategy, FlatOutput: true}
			query := func() {
				if _, err := svc.Query(context.Background(), req); err != nil {
					t.Fatal(err)
				}
			}
			// Warm-up: the first query plans and fills the cache, the
			// next few let a scatter's scratches settle (they change
			// shards from query to query).
			for i := 0; i < 5; i++ {
				query()
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				query()
			}
			runtime.ReadMemStats(&after)
			bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
			allocs := float64(after.Mallocs-before.Mallocs) / runs
			t.Logf("%.0f B, %.0f allocs per query", bytes, allocs)
			if bytes > tc.maxBytes || allocs > tc.maxAllocs {
				t.Errorf("warm query allocates %.0f B in %.0f objects, budget %.0f B / %.0f",
					bytes, allocs, tc.maxBytes, tc.maxAllocs)
			}
		})
	}
}
