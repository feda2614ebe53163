// Package m2mjoin's top-level benchmarks regenerate every figure of
// the paper's evaluation through the testing.B harness — one benchmark
// per figure — plus micro-benchmarks for the execution strategies on
// the paper's query shapes. Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks run at Quick scale per iteration; use
// cmd/m2mbench -scale full for the paper-sized runs.
package m2mjoin

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/experiments"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/workload"
)

func benchFigure(b *testing.B, run func(experiments.Scale, int64) *experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl := run(experiments.Quick, int64(i+1))
		tbl.Render(io.Discard)
	}
}

// BenchmarkFig4Sampling regenerates Fig. 4 (Q-error of sampling-based
// match probability / fanout estimation).
func BenchmarkFig4Sampling(b *testing.B) { benchFigure(b, experiments.Fig4) }

// BenchmarkFig6Robustness regenerates Fig. 6 (cost-model robustness to
// estimation errors).
func BenchmarkFig6Robustness(b *testing.B) { benchFigure(b, experiments.Fig6) }

// BenchmarkFig10Heuristics regenerates Fig. 10 (join-order heuristics
// vs the exhaustive optimum).
func BenchmarkFig10Heuristics(b *testing.B) { benchFigure(b, experiments.Fig10) }

// BenchmarkFig11Synthetic regenerates Fig. 11 (synthetic benchmark,
// six strategies across four query shapes).
func BenchmarkFig11Synthetic(b *testing.B) { benchFigure(b, experiments.Fig11) }

// BenchmarkFig12CE regenerates Fig. 12 (simulated CE benchmark).
func BenchmarkFig12CE(b *testing.B) { benchFigure(b, experiments.Fig12) }

// BenchmarkFig13Simulation regenerates Fig. 13 (analytic cost
// simulation across match probabilities).
func BenchmarkFig13Simulation(b *testing.B) { benchFigure(b, experiments.Fig13) }

// BenchmarkFig14Validation regenerates Fig. 14 (predicted vs actual
// execution cost).
func BenchmarkFig14Validation(b *testing.B) { benchFigure(b, experiments.Fig14) }

// BenchmarkFig15FanoutSkew regenerates Fig. 15 (constant-fanout
// assumption under skewed per-tuple fanouts).
func BenchmarkFig15FanoutSkew(b *testing.B) { benchFigure(b, experiments.Fig15) }

// BenchmarkFig16RobustExec regenerates Fig. 16 (execution robustness
// across random join orders).
func BenchmarkFig16RobustExec(b *testing.B) { benchFigure(b, experiments.Fig16) }

// --- strategy micro-benchmarks -------------------------------------
//
// One benchmark per execution strategy on each of the paper's query
// shapes, at a fixed mid-range parameterization (m in [0.2,0.6],
// fo in [1,4], 5k driver rows). These isolate the per-strategy
// execution cost that the figure harnesses aggregate.

type benchShape struct {
	name  string
	build func(src plan.StatsSource) *plan.Tree
}

var benchShapes = []benchShape{
	{"Star7", func(src plan.StatsSource) *plan.Tree { return plan.Star(6, src) }},
	{"Path7", func(src plan.StatsSource) *plan.Tree { return plan.CenteredPath(7, src) }},
	{"Snowflake32", func(src plan.StatsSource) *plan.Tree { return plan.Snowflake(3, 2, src) }},
	{"Snowflake51", func(src plan.StatsSource) *plan.Tree { return plan.Snowflake(5, 1, src) }},
}

func BenchmarkStrategies(b *testing.B) {
	for _, sh := range benchShapes {
		rng := rand.New(rand.NewSource(123))
		tr := sh.build(plan.UniformStats(rng, 0.2, 0.6, 1, 4))
		ds := workload.Generate(tr, workload.Config{DriverRows: 5000, Seed: 99})
		model := cost.New(workload.MeasuredTree(ds), cost.DefaultWeights())
		order := opt.Optimize(model, cost.COM, opt.GreedySurvival).Order
		for _, s := range cost.AllStrategies {
			b.Run(fmt.Sprintf("%s/%s", sh.name, s), func(b *testing.B) {
				var probes int64
				for i := 0; i < b.N; i++ {
					stats, err := exec.Run(ds, exec.Options{
						Strategy: s, Order: order, FlatOutput: true,
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
}

// BenchmarkStrategiesParallel sweeps the worker count of the parallel
// executor on the Snowflake32 shape with a larger driver, for every
// strategy. The build phase is shared and sequential; probe work over
// driver chunks scales with workers. Allocations are reported to track
// the zero-allocation probe hot path (the per-iteration figure covers
// the whole run including the build phase; it must not grow with the
// driver chunk count).
func BenchmarkStrategiesParallel(b *testing.B) {
	// Mid-to-high match probabilities keep most driver rows alive, so
	// the parallel probe/expand phase dominates the (shared) build
	// phase and the worker sweep measures actual probe scaling.
	rng := rand.New(rand.NewSource(123))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.5, 0.8, 1, 3))
	ds := workload.Generate(tr, workload.Config{DriverRows: 30000, Seed: 99})
	model := cost.New(workload.MeasuredTree(ds), cost.DefaultWeights())
	order := opt.Optimize(model, cost.COM, opt.GreedySurvival).Order
	for _, s := range cost.AllStrategies {
		for _, par := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("Snowflake32/%s/par%d", s, par), func(b *testing.B) {
				b.ReportAllocs()
				var checksum uint64
				for i := 0; i < b.N; i++ {
					stats, err := exec.Run(ds, exec.Options{
						Strategy: s, Order: order, FlatOutput: true, Parallelism: par,
					})
					if err != nil {
						b.Fatal(err)
					}
					if checksum == 0 {
						checksum = stats.Checksum
					} else if stats.Checksum != checksum {
						b.Fatalf("checksum changed across runs")
					}
				}
			})
		}
	}
}

// BenchmarkStrategiesSharded sweeps the shard count of the in-process
// scatter-gather layer (exec.RunSharded over a shard.Partition) on the
// Snowflake32 shape at a fixed worker budget, for every strategy. The
// benchmark also enforces the layer's core claim inline: the merged
// checksum is bit-identical at every shard count. Shard count 1 is the
// unsharded baseline (the trivial partition restricts nothing). No
// artifact provider is wired, so every shard's Run builds its own
// tables: the deltas are the cold per-shard build plus the row-set
// materialization, the cost a serving tier avoids through its cache.
func BenchmarkStrategiesSharded(b *testing.B) {
	rng := rand.New(rand.NewSource(123))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.5, 0.8, 1, 3))
	ds := workload.Generate(tr, workload.Config{DriverRows: 30000, Seed: 99})
	model := cost.New(workload.MeasuredTree(ds), cost.DefaultWeights())
	order := opt.Optimize(model, cost.COM, opt.GreedySurvival).Order
	partitions := map[int][]shard.Shard{}
	for _, n := range []int{1, 2, 4} {
		parts, err := shard.Partition(ds, n)
		if err != nil {
			b.Fatal(err)
		}
		partitions[n] = parts
	}
	for _, s := range cost.AllStrategies {
		var checksum uint64
		for _, n := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("Snowflake32/%s/shards%d", s, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					stats, err := exec.RunSharded(partitions[n], exec.Options{
						Strategy: s, Order: order, FlatOutput: true, Parallelism: 4,
					})
					if err != nil {
						b.Fatal(err)
					}
					if checksum == 0 {
						checksum = stats.Checksum
					} else if stats.Checksum != checksum {
						b.Fatalf("checksum changed across shard counts")
					}
				}
			})
		}
	}
}

// BenchmarkOptimizers measures plan-search cost on a 14-relation
// random tree for each algorithm (Algorithm 1 vs the three greedies).
func BenchmarkOptimizers(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tr := plan.RandomTree(14, rng, plan.UniformStats(rng, 0.1, 0.6, 1, 8))
	model := cost.New(tr, cost.DefaultWeights())
	for _, a := range []opt.Algorithm{opt.Exhaustive, opt.RankOrdering, opt.GreedyResultSize, opt.GreedySurvival} {
		b.Run(a.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opt.Optimize(model, cost.COM, a)
			}
		})
	}
}

// BenchmarkExpansion isolates the factorized result expansion (the
// 1/14-weighted phase) against the factorized no-expansion run.
func BenchmarkExpansion(b *testing.B) {
	tr := plan.Star(4, plan.FixedStats(0.8, 4))
	ds := workload.Generate(tr, workload.Config{DriverRows: 2000, Seed: 1})
	order := plan.Order{1, 2, 3, 4}
	for _, flat := range []bool{false, true} {
		name := "factorized"
		if flat {
			name = "flat"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := exec.Run(ds, exec.Options{
					Strategy: cost.COM, Order: order, FlatOutput: flat,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProbeInterleaved compares the sequential probe drain
// (NoInterleave) against the default wavefront-interleaved chain per
// strategy on the Snowflake32 shape: same probe set, same Stats, but
// the interleaved path overlaps directory misses across relations and
// fuses the BVP filter pass into the table probe's stage 1.
func BenchmarkProbeInterleaved(b *testing.B) {
	rng := rand.New(rand.NewSource(123))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.5, 0.8, 1, 3))
	ds := workload.Generate(tr, workload.Config{DriverRows: 30000, Seed: 99})
	model := cost.New(workload.MeasuredTree(ds), cost.DefaultWeights())
	order := opt.Optimize(model, cost.COM, opt.GreedySurvival).Order
	for _, s := range cost.AllStrategies {
		for _, mode := range []struct {
			name         string
			noInterleave bool
		}{{"sequential", true}, {"interleaved", false}} {
			b.Run(fmt.Sprintf("Snowflake32/%s/%s", s, mode.name), func(b *testing.B) {
				b.ReportAllocs()
				var checksum uint64
				for i := 0; i < b.N; i++ {
					stats, err := exec.Run(ds, exec.Options{
						Strategy: s, Order: order, FlatOutput: true,
						NoInterleave: mode.noInterleave,
					})
					if err != nil {
						b.Fatal(err)
					}
					if checksum == 0 {
						checksum = stats.Checksum
					} else if stats.Checksum != checksum {
						b.Fatalf("checksum changed across modes")
					}
				}
			})
		}
	}
}

// BenchmarkSharedScan sweeps the batch size of the shared-scan
// executor: batch N runs N identical STD queries as one driver pass
// (exec.RunBatch); the solo1 baseline is one exec.Run. Per-op cost at
// batch N should grow by much less than N× — the driver scan, chunk
// bookkeeping and gather work are shared — and the inline check pins
// every member's checksum to the solo result.
func BenchmarkSharedScan(b *testing.B) {
	rng := rand.New(rand.NewSource(123))
	tr := plan.Snowflake(3, 2, plan.UniformStats(rng, 0.5, 0.8, 1, 3))
	ds := workload.Generate(tr, workload.Config{DriverRows: 30000, Seed: 99})
	model := cost.New(workload.MeasuredTree(ds), cost.DefaultWeights())
	order := opt.Optimize(model, cost.COM, opt.GreedySurvival).Order
	opts := exec.Options{Strategy: cost.STD, Order: order, FlatOutput: true}
	solo, err := exec.Run(ds, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Snowflake32/STD/solo1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			stats, err := exec.Run(ds, opts)
			if err != nil {
				b.Fatal(err)
			}
			if stats.Checksum != solo.Checksum {
				b.Fatal("checksum drifted")
			}
		}
	})
	for _, n := range []int{2, 4, 8} {
		optsList := make([]exec.Options, n)
		for i := range optsList {
			optsList[i] = opts
		}
		b.Run(fmt.Sprintf("Snowflake32/STD/batch%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				stats, errs := exec.RunBatch(ds, optsList)
				for m := range optsList {
					if errs[m] != nil {
						b.Fatal(errs[m])
					}
					if stats[m].Checksum != solo.Checksum {
						b.Fatal("member checksum diverged from solo")
					}
				}
			}
		})
	}
}
