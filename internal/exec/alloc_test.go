package exec

import (
	"runtime"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// TestAllocationsChunkCountInvariant pins the zero-allocation probe
// hot path: a run's allocations come from the build phase and from
// per-run set-up (the run, its workers, its stats), never from
// per-chunk work — and scratch still growing after an earlier, smaller
// chunk size must not change that. Shrinking the chunk size 16x (so
// the executor processes 16x more chunks) must therefore not
// meaningfully change the allocation count. The seed executor
// allocated fresh probe results, key buffers, factor chunks and flat
// intermediates for every chunk, and fails this test by an order of
// magnitude.
func TestAllocationsChunkCountInvariant(t *testing.T) {
	tr := plan.Snowflake(3, 2, plan.FixedStats(0.7, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 8000, Seed: 11})
	order := plan.Order(tr.NonRoot())

	for _, s := range cost.AllStrategies {
		measure := func(chunkSize int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(ds, Options{
					Strategy: s, Order: order, FlatOutput: true, ChunkSize: chunkSize,
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
		few := measure(4096) // 2 chunks
		many := measure(256) // 32 chunks
		if many > few+40 || many > 2*few {
			t.Errorf("%v: allocations scale with chunk count: %0.f allocs at 32 chunks vs %0.f at 2",
				s, many, few)
		}
	}
}

// allocsPerCall reports the bytes and heap objects one call of fn
// allocates, process-wide (a run's workers are other goroutines), as
// the mean over runs calls after prime unmeasured ones.
func allocsPerCall(prime, runs int, fn func()) (bytes, allocs float64) {
	for i := 0; i < prime; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs),
		float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestWarmRunAllocationBudget pins what the free list won: with every
// table served by a provider and the scratch borrowed, a warm Run
// allocates its own set-up — the run, one worker per slot, the stats —
// and, for the SJ strategies, phase 1's masks. One row per case, the
// bound spelled out beside what the parent commit (fresh scratch every
// run) measured; every row fails there.
func TestWarmRunAllocationBudget(t *testing.T) {
	star := plan.Star(6, plan.FixedStats(0.8, 1.3))
	starDS := workload.Generate(star, workload.Config{DriverRows: 20000, Seed: 11})
	snow := plan.Snowflake(3, 2, plan.FixedStats(0.8, 1.6))
	snowDS := workload.Generate(snow, workload.Config{DriverRows: 55000, Seed: 11})

	type row struct {
		name        string
		ds          *storage.Dataset
		strategy    cost.Strategy
		flat        bool
		parallelism int
		shards      int // > 0: RunSharded over that many
		// prime is the unmeasured warm-up: one run fills the provider
		// and grows the scratch; a scatter takes a few, because its
		// scratches change shards from run to run until each has seen
		// every shard's largest chunk.
		prime               int
		maxBytes, maxAllocs float64
	}
	rows := []row{
		// star-6 @ 20 000 driver rows, sequential.       parent: bytes / allocs
		{"star6 STD flat", starDS, cost.STD, true, 1, 0, 1, 8 << 10, 64},               // 498 KB / 143
		{"star6 STD factorized", starDS, cost.STD, false, 1, 0, 1, 8 << 10, 64},        // 498 KB / 143
		{"star6 COM flat", starDS, cost.COM, true, 1, 0, 1, 8 << 10, 64},               // 349 KB / 119
		{"star6 COM factorized", starDS, cost.COM, false, 1, 0, 1, 8 << 10, 64},        // 451 KB / 112
		{"star6 BVP+STD flat", starDS, cost.BVPSTD, true, 1, 0, 1, 8 << 10, 80},        // 583 KB / 173
		{"star6 BVP+STD factorized", starDS, cost.BVPSTD, false, 1, 0, 1, 8 << 10, 80}, // 583 KB / 173
		{"star6 BVP+COM flat", starDS, cost.BVPCOM, true, 1, 0, 1, 8 << 10, 80},        // 407 KB / 143
		{"star6 BVP+COM factorized", starDS, cost.BVPCOM, false, 1, 0, 1, 8 << 10, 80}, // 472 KB / 136
		// SJ: phase 1's reduction mask (20 000 bits) is the run's own.
		{"star6 SJ+STD flat", starDS, cost.SJSTD, true, 1, 0, 1, 16 << 10, 64},        // 2 143 KB / 193
		{"star6 SJ+STD factorized", starDS, cost.SJSTD, false, 1, 0, 1, 16 << 10, 64}, // 2 143 KB / 193
		{"star6 SJ+COM flat", starDS, cost.SJCOM, true, 1, 0, 1, 16 << 10, 64},        // 451 KB / 120
		{"star6 SJ+COM factorized", starDS, cost.SJCOM, false, 1, 0, 1, 16 << 10, 64}, // 631 KB / 113
		// Snowflake(3,2) @ 55 000: the blow-up regime's plan shape.
		{"snowflake32 COM flat P=2", snowDS, cost.COM, true, 2, 0, 1, 64 << 10, 64}, // 1 098 KB / 292
		// Four shards are four runs: four set-ups plus the scatter's own
		// context, goroutines and merge — about five solo runs' worth
		// where the parent paid four scratches as well.
		{"snowflake32 COM flat 4 shards", snowDS, cost.COM, true, 4, 4, 4, 64 << 10, 256}, // 2 395 KB / 639
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			defer swapFreeList(swapFreeList(nil))
			opts := Options{
				Strategy: tc.strategy, Order: plan.Order(tc.ds.Tree.NonRoot()),
				FlatOutput: tc.flat, Parallelism: tc.parallelism, Artifacts: newTableStore(),
			}
			run := func() {
				if _, err := Run(tc.ds, opts); err != nil {
					t.Fatal(err)
				}
			}
			if tc.shards > 0 {
				shards, err := shard.Partition(tc.ds, tc.shards)
				if err != nil {
					t.Fatal(err)
				}
				run = func() {
					if _, err := RunSharded(shards, opts); err != nil {
						t.Fatal(err)
					}
				}
			}
			bytes, allocs := allocsPerCall(tc.prime, 4, run)
			t.Logf("%.0f B, %.0f allocs per run", bytes, allocs)
			if bytes > tc.maxBytes || allocs > tc.maxAllocs {
				t.Errorf("warm run allocates %.0f B in %.0f objects, budget %.0f B / %.0f",
					bytes, allocs, tc.maxBytes, tc.maxAllocs)
			}
		})
	}
}
