package exec

import (
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/opt"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// BenchmarkWarm times warm runs with flat output — every hash table
// served by a map provider, one worker, the plan the exhaustive search
// picks on the generator's statistics — over the shapes and sizes of
// the serving benchmark's BVP+COM head (a Snowflake(3,2) and a centred
// 7-path, 20 000 driver rows) and of its many-to-many blow-up under COM
// (Snowflake(3,2), 55 000 driver rows). The serve shapes also run the
// flat pipeline, STD, BVP+STD and SJ+STD, the last on a build side
// reduced once by ReduceBuildSide and adopted by every run, as the
// service adopts its cached one. Compare two commits with alternating
// runs:
//
//	go test -run '^$' -bench Warm -count 15 ./internal/exec
func BenchmarkWarm(b *testing.B) {
	type shape struct {
		name string
		tree *plan.Tree
		rows int
	}
	snowflake := shape{"serve-snowflake", plan.Snowflake(3, 2, statsList(
		plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.3, Fo: 3},
		plan.EdgeStats{M: 0.4, Fo: 3}, plan.EdgeStats{M: 0.6, Fo: 2}, plan.EdgeStats{M: 0.4, Fo: 2.5},
		plan.EdgeStats{M: 0.6, Fo: 1.5}, plan.EdgeStats{M: 0.5, Fo: 1.5}, plan.EdgeStats{M: 0.35, Fo: 4},
	)), 20000}
	path := shape{"serve-path", plan.CenteredPath(7, statsList(
		plan.EdgeStats{M: 0.6, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 2}, plan.EdgeStats{M: 0.5, Fo: 3},
		plan.EdgeStats{M: 0.4, Fo: 3}, plan.EdgeStats{M: 0.6, Fo: 1.5}, plan.EdgeStats{M: 0.5, Fo: 2.5},
	)), 20000}
	blowup := shape{"blowup", plan.Snowflake(3, 2, statsList(
		plan.EdgeStats{M: 0.8, Fo: 2.0}, plan.EdgeStats{M: 0.9, Fo: 1.5}, plan.EdgeStats{M: 0.7, Fo: 2.0},
		plan.EdgeStats{M: 0.7, Fo: 2.0}, plan.EdgeStats{M: 0.8, Fo: 1.5}, plan.EdgeStats{M: 0.9, Fo: 1.2},
		plan.EdgeStats{M: 0.9, Fo: 1.5}, plan.EdgeStats{M: 0.6, Fo: 2.5}, plan.EdgeStats{M: 0.85, Fo: 1.4},
	)), 55000}
	cases := []struct {
		shape    shape
		strategy cost.Strategy
	}{
		{snowflake, cost.BVPCOM},
		{path, cost.BVPCOM},
		{blowup, cost.COM},
		{snowflake, cost.STD},
		{snowflake, cost.BVPSTD},
		{snowflake, cost.SJSTD},
		{path, cost.STD},
		{path, cost.BVPSTD},
		{path, cost.SJSTD},
	}
	for _, c := range cases {
		b.Run(c.shape.name+"/"+c.strategy.String(), func(b *testing.B) {
			tree := c.shape.tree
			ds := workload.Generate(tree, workload.Config{DriverRows: c.shape.rows, Seed: 101})
			opts := Options{
				Strategy:    c.strategy,
				Order:       opt.Optimize(cost.New(tree, cost.DefaultWeights()), c.strategy, opt.Exhaustive).Order,
				FlatOutput:  true,
				Parallelism: 1,
				Artifacts:   newTableStore(),
			}
			if c.strategy.Reduction() == cost.SemiJoin {
				bs, err := ReduceBuildSide(ds, opts)
				if err != nil {
					b.Fatal(err)
				}
				opts.BuildSide = bs
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

// statsList is a StatsSource handing out stats in order.
func statsList(stats ...plan.EdgeStats) plan.StatsSource {
	return func() plan.EdgeStats {
		s := stats[0]
		stats = stats[1:]
		return s
	}
}
