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
// picks on the generator's statistics — over the benchmark's datasets
// as workload.Named declares them: the serve mix's BVP+COM head
// (snowflake32 and path, 20 000 driver rows) and the many-to-many
// blow-up under COM (blowup, 55 000 driver rows), all generated at seed
// 101. The serve shapes also run the flat pipeline, STD, BVP+STD, and
// SJ+STD and SJ+COM — the plan the service's auto queries run once
// phase 1 is resident — on a build side reduced once by
// ReduceBuildSide and adopted by every run, as the service adopts its
// cached one. Compare two commits with alternating runs:
//
//	go test -run '^$' -bench Warm -count 15 ./internal/exec
func BenchmarkWarm(b *testing.B) {
	type shape struct {
		name string
		tree *plan.Tree
		rows int
	}
	named := func(label, dataset string, rows int) shape {
		tree, err := workload.Named(dataset)
		if err != nil {
			b.Fatal(err)
		}
		return shape{label, tree, rows}
	}
	snowflake := named("serve-snowflake", "snowflake32", 20000)
	path := named("serve-path", "path", 20000)
	blowup := named("blowup", "blowup", 55000)
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
		{snowflake, cost.SJCOM},
		{path, cost.SJCOM},
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
