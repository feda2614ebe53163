package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// BenchmarkAblationChunkSize sweeps the driver batch size for COM —
// the vectorization granularity trade-off (cache locality vs per-chunk
// overheads). It is the one ablation no BENCHMARK.json metric covers.
func BenchmarkAblationChunkSize(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.2, 0.5, 1, 4))
	ds := workload.Generate(tr, workload.Config{DriverRows: 20000, Seed: 8})
	order := plan.Order(tr.NonRoot()) // ascending IDs: parents precede children
	for _, size := range []int{64, 256, 1024, 2048, 8192, 1 << 15} {
		b.Run(fmt.Sprintf("chunk=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Run(ds, Options{
					Strategy: cost.COM, Order: order,
					FlatOutput: true, ChunkSize: size,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
