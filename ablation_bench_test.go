package m2mjoin

// Ablation benchmarks for the design choices DESIGN.md calls out:
// driver chunk size, expansion strategy, and the factor chunk's
// bidirectional kill propagation. Each isolates one knob with
// everything else held fixed.

import (
	"fmt"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// BenchmarkAblationChunkSize sweeps the driver batch size for COM —
// the vectorization granularity trade-off (cache locality vs per-chunk
// overheads).
func BenchmarkAblationChunkSize(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.2, 0.5, 1, 4))
	ds := workload.Generate(tr, workload.Config{DriverRows: 20000, Seed: 8})
	order := validOrder(tr)
	for _, size := range []int{64, 256, 1024, 2048, 8192, 1 << 15} {
		b.Run(fmt.Sprintf("chunk=%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(ds, exec.Options{
					Strategy: cost.COM, Order: order,
					FlatOutput: true, ChunkSize: size,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationExpansion compares depth-first and breadth-first
// result expansion end to end.
func BenchmarkAblationExpansion(b *testing.B) {
	tr := plan.Star(4, plan.FixedStats(0.7, 4))
	ds := workload.Generate(tr, workload.Config{DriverRows: 4000, Seed: 10})
	order := validOrder(tr)
	for _, bfs := range []bool{false, true} {
		name := "depth-first"
		if bfs {
			name = "breadth-first"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(ds, exec.Options{
					Strategy: cost.COM, Order: order,
					FlatOutput: true, BreadthFirstExpand: bfs,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// validOrder returns the nodes in ascending ID order, which is always
// a valid left-deep order (parents precede children by construction).
func validOrder(t *plan.Tree) plan.Order {
	return plan.Order(t.NonRoot())
}
