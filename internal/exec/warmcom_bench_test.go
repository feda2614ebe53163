package exec

import (
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// BenchmarkWarmCOM times warm factorized runs with flat output — every
// hash table served by a map provider, one worker, the plan the
// exhaustive search picks on the generator's statistics — over the
// shapes and sizes of the serving benchmark's BVP+COM head (a
// Snowflake(3,2) and a centred 7-path, 20 000 driver rows) and of its
// many-to-many blow-up under COM (Snowflake(3,2), 55 000 driver rows).
// Compare two commits with alternating runs:
//
//	go test -run '^$' -bench WarmCOM -count 15 ./internal/exec
func BenchmarkWarmCOM(b *testing.B) {
	list := func(stats ...plan.EdgeStats) plan.StatsSource {
		return func() plan.EdgeStats {
			s := stats[0]
			stats = stats[1:]
			return s
		}
	}
	cases := []struct {
		name     string
		tree     *plan.Tree
		rows     int
		strategy cost.Strategy
	}{
		{"serve-snowflake/BVP+COM", plan.Snowflake(3, 2, list(
			plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.3, Fo: 3},
			plan.EdgeStats{M: 0.4, Fo: 3}, plan.EdgeStats{M: 0.6, Fo: 2}, plan.EdgeStats{M: 0.4, Fo: 2.5},
			plan.EdgeStats{M: 0.6, Fo: 1.5}, plan.EdgeStats{M: 0.5, Fo: 1.5}, plan.EdgeStats{M: 0.35, Fo: 4},
		)), 20000, cost.BVPCOM},
		{"serve-path/BVP+COM", plan.CenteredPath(7, list(
			plan.EdgeStats{M: 0.6, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 3},
			plan.EdgeStats{M: 0.4, Fo: 3}, plan.EdgeStats{M: 0.6, Fo: 1.5}, plan.EdgeStats{M: 0.5, Fo: 2.5},
		)), 20000, cost.BVPCOM},
		{"blowup/COM", plan.Snowflake(3, 2, list(
			plan.EdgeStats{M: 0.8, Fo: 2.0}, plan.EdgeStats{M: 0.9, Fo: 1.5}, plan.EdgeStats{M: 0.7, Fo: 2.0},
			plan.EdgeStats{M: 0.7, Fo: 2.0}, plan.EdgeStats{M: 0.8, Fo: 1.5}, plan.EdgeStats{M: 0.9, Fo: 1.2},
			plan.EdgeStats{M: 0.9, Fo: 1.5}, plan.EdgeStats{M: 0.6, Fo: 2.5}, plan.EdgeStats{M: 0.85, Fo: 1.4},
		)), 55000, cost.COM},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			ds := workload.Generate(c.tree, workload.Config{DriverRows: c.rows, Seed: 101})
			opts := Options{
				Strategy:    c.strategy,
				Order:       opt.Optimize(cost.New(c.tree, cost.DefaultWeights()), c.strategy, opt.Exhaustive).Order,
				FlatOutput:  true,
				Parallelism: 1,
				Artifacts:   newTableStore(),
			}
			// The first run fills the provider and grows the scratch.
			if _, err := Run(ds, opts); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(ds, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
