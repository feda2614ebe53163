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

// BenchmarkAblationKillPropagation quantifies the survival effect: COM
// with and without bidirectional kill propagation on a query with a
// killing branch ordered after an exploding one.
func BenchmarkAblationKillPropagation(b *testing.B) {
	tr := plan.NewTree("R1")
	boom := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.9, Fo: 6}, "boom")
	leaf := tr.AddChild(boom, plan.EdgeStats{M: 0.9, Fo: 2}, "leaf")
	kill := tr.AddChild(plan.Root, plan.EdgeStats{M: 0.15, Fo: 1}, "killer")
	ds := workload.Generate(tr, workload.Config{DriverRows: 20000, Seed: 9})
	order := plan.Order{boom, kill, leaf}
	for _, noProp := range []bool{false, true} {
		name := "propagation"
		if noProp {
			name = "no-propagation"
		}
		b.Run(name, func(b *testing.B) {
			var probes int64
			for i := 0; i < b.N; i++ {
				stats, err := exec.Run(ds, exec.Options{
					Strategy: cost.COM, Order: order,
					FlatOutput: true, NoKillPropagation: noProp,
				})
				if err != nil {
					b.Fatal(err)
				}
				probes = stats.HashProbes
			}
			b.ReportMetric(float64(probes), "hash-probes")
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
