package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/workload"
)

// TestInterleavedMatchesSequential holds Options.NoInterleave inert:
// for every strategy × worker count × shape, a run with it set must
// produce the FULL Stats — checksum, every probe counter, the
// per-relation breakdown — bit-identical to a run without it, and both
// must count exactly what the countingReference counts.
func TestInterleavedMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	shapes := []struct {
		name string
		tr   *plan.Tree
	}{
		{"star", plan.Star(5, plan.UniformStats(rng, 0.5, 0.9, 1, 3))},
		{"path", plan.Path(5, plan.UniformStats(rng, 0.6, 0.9, 1, 2))},
		{"snowflake", plan.Snowflake(3, 2, plan.UniformStats(rng, 0.5, 0.9, 1, 3))},
	}
	for _, sh := range shapes {
		ds := workload.Generate(sh.tr, workload.Config{DriverRows: 2500, Seed: 19})
		order := plan.Order(sh.tr.NonRoot())
		for _, s := range cost.AllStrategies {
			ref := countingReference(ds, Options{Strategy: s, Order: order, FlatOutput: true})
			for _, par := range []int{1, 2, 8} {
				opts := Options{
					Strategy:    s,
					Order:       order,
					FlatOutput:  true,
					ChunkSize:   512,
					Parallelism: par,
				}
				seq := opts
				seq.NoInterleave = true
				want, err := Run(ds, seq)
				if err != nil {
					t.Fatalf("%s %v par=%d NoInterleave: %v", sh.name, s, par, err)
				}
				got, err := Run(ds, opts)
				if err != nil {
					t.Fatalf("%s %v par=%d default: %v", sh.name, s, par, err)
				}
				if want.OutputTuples == 0 {
					t.Fatalf("%s %v: degenerate test, no output", sh.name, s)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v par=%d: NoInterleave changes stats:\n got %+v\nwant %+v",
						sh.name, s, par, got, want)
				}
				label := fmt.Sprintf("%s par=%d", sh.name, par)
				requireCounts(t, label+" NoInterleave", seq, want, ref)
				requireCounts(t, label+" default", opts, got, ref)
			}
		}
	}
}

// TestInterleavedMatchesSequentialSelections repeats the differential
// with pushed-down selections: driver selections shrink the scan, and
// child selections put holes in the hash tables and (for BVP) the
// bitvectors, so both pipelines' filter passes and table probes run
// behind sparse selection masks.
func TestInterleavedMatchesSequentialSelections(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	ds := selectableDataset(rng, 1500)
	order := plan.Order{1, 2, 3}
	selections := []Selection{
		{Rel: plan.Root, Column: "cat", Value: 1},
		{Rel: 1, Column: "cat", Value: 2},
		{Rel: 3, Column: "cat", Value: 0},
	}
	for _, s := range cost.AllStrategies {
		ref := countingReference(ds, Options{Strategy: s, Order: order, FlatOutput: true, Selections: selections})
		for _, par := range []int{1, 8} {
			opts := Options{
				Strategy:    s,
				Order:       order,
				FlatOutput:  true,
				ChunkSize:   256,
				Parallelism: par,
				Selections:  selections,
			}
			seq := opts
			seq.NoInterleave = true
			want, err := Run(ds, seq)
			if err != nil {
				t.Fatalf("%v par=%d NoInterleave: %v", s, par, err)
			}
			got, err := Run(ds, opts)
			if err != nil {
				t.Fatalf("%v par=%d default: %v", s, par, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v par=%d: NoInterleave changes stats under selections:\n got %+v\nwant %+v",
					s, par, got, want)
			}
			label := fmt.Sprintf("selections par=%d", par)
			requireCounts(t, label+" NoInterleave", seq, want, ref)
			requireCounts(t, label+" default", opts, got, ref)
		}
	}
}

// TestInterleavedMatchesSequentialSkewed runs the differential over a
// skewed workload (long runs in some buckets, empty tails in others)
// plus factorized output, so run verification and expansion both see
// non-uniform match lists.
func TestInterleavedMatchesSequentialSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	tr := plan.Star(4, plan.UniformStats(rng, 0.4, 0.95, 1, 5))
	fanouts := make(map[plan.NodeID]workload.FanoutDist)
	for _, id := range tr.NonRoot() {
		fanouts[id] = workload.NewZipf(1.1, 40)
	}
	ds := workload.Generate(tr, workload.Config{
		DriverRows: 4000, Seed: 23,
		Fanouts:          fanouts,
		DanglingFraction: 0.3, // dangling keys give the probes an empty tail
	})
	order := plan.Order(tr.NonRoot())
	for _, s := range cost.AllStrategies {
		for _, flat := range []bool{true, false} {
			opts := Options{
				Strategy:   s,
				Order:      order,
				FlatOutput: flat,
				ChunkSize:  512,
			}
			ref := countingReference(ds, opts)
			seq := opts
			seq.NoInterleave = true
			want, err := Run(ds, seq)
			if err != nil {
				t.Fatalf("%v flat=%v NoInterleave: %v", s, flat, err)
			}
			got, err := Run(ds, opts)
			if err != nil {
				t.Fatalf("%v flat=%v default: %v", s, flat, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v flat=%v: NoInterleave changes stats on skewed keys:\n got %+v\nwant %+v",
					s, flat, got, want)
			}
			label := fmt.Sprintf("skewed flat=%v", flat)
			requireCounts(t, label+" NoInterleave", seq, want, ref)
			requireCounts(t, label+" default", opts, got, ref)
		}
	}
}

// TestInterleavedAllocationsChunkCountInvariant pins the steady-state
// allocation-freedom of a run with the ignored NoInterleave set, as
// TestAllocationsChunkCountInvariant pins the default's: the filter
// passes and table probes reuse the worker's key, mask and probe
// scratch, so 16x more chunks must not mean more allocations.
func TestInterleavedAllocationsChunkCountInvariant(t *testing.T) {
	tr := plan.Snowflake(3, 2, plan.FixedStats(0.7, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 8000, Seed: 11})
	order := plan.Order(tr.NonRoot())

	for _, s := range cost.AllStrategies {
		measure := func(chunkSize int) float64 {
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(ds, Options{
					Strategy: s, Order: order, FlatOutput: true, ChunkSize: chunkSize,
					NoInterleave: true,
				}); err != nil {
					t.Fatal(err)
				}
			})
		}
		few := measure(4096)
		many := measure(256)
		if many > few+40 || many > 2*few {
			t.Errorf("%v: NoInterleave allocations scale with chunk count: %0.f allocs at 32 chunks vs %0.f at 2",
				s, many, few)
		}
	}
}
