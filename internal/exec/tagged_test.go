package exec

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// taggedRelation builds a one-column relation from keys.
func taggedRelation(keys []int64) *storage.Relation {
	rel := storage.NewRelation("R", "k")
	for _, k := range keys {
		rel.AppendRow(k)
	}
	return rel
}

// TestTaggedTableMatchesChainedOracle is the differential property
// test of the tagged hash table against the retained untagged chained
// oracle: over random keys, heavily skewed keys and sparse live masks,
// membership, match counts and match rows (as sets), read through the
// table's batch entry points, must agree exactly with the oracle's
// per-key Contains / CountMatches / AppendMatches.
func TestTaggedTableMatchesChainedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	type workloadGen struct {
		name string
		gen  func(n int) []int64
	}
	gens := []workloadGen{
		{"random", func(n int) []int64 {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = rng.Int63()
			}
			return keys
		}},
		{"dense", func(n int) []int64 {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = rng.Int63n(int64(n/4 + 1))
			}
			return keys
		}},
		{"skewed", func(n int) []int64 {
			// Zipf-ish: a handful of hot keys hold most rows, producing
			// long chains.
			z := rand.NewZipf(rng, 1.3, 1.0, uint64(n))
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(z.Uint64())
			}
			return keys
		}},
	}
	masks := func(n int) []*storage.Bitmap {
		sparse := storage.NewEmptyBitmap(n)
		for i := 0; i < n; i += 37 {
			sparse.Set(i)
		}
		half := storage.NewEmptyBitmap(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				half.Set(i)
			}
		}
		return []*storage.Bitmap{nil, half, sparse}
	}

	for _, g := range gens {
		for _, n := range []int{0, 63, 1000, 20000} {
			keys := g.gen(n)
			rel := taggedRelation(keys)
			for mi, live := range masks(n) {
				tagged := hashtable.Build(rel, "k", live)
				oracle := BuildChained(rel, "k", live)
				if tagged.Len() != oracle.Len() {
					t.Fatalf("%s n=%d mask=%d: Len %d vs oracle %d",
						g.name, n, mi, tagged.Len(), oracle.Len())
				}
				// Probe inserted keys, near-misses and far misses.
				probes := append([]int64{}, keys...)
				for i := 0; i < n/2+16; i++ {
					probes = append(probes, rng.Int63(), int64(i)+(1<<50))
				}
				// The table answers through its batch entry points only;
				// each lane is held to the per-key oracle.
				var res hashtable.ProbeResult
				tagged.ProbeBatchInto(probes, nil, &res)
				found, counts := make([]bool, len(probes)), make([]int32, len(probes))
				tagged.ProbeContains(probes, nil, found)
				tagged.ProbeCounts(probes, nil, counts)
				for i, p := range probes {
					if found[i] != oracle.Contains(p) {
						t.Fatalf("%s n=%d mask=%d key=%d: Contains diverges", g.name, n, mi, p)
					}
					if counts[i] != oracle.CountMatches(p) {
						t.Fatalf("%s n=%d mask=%d key=%d: CountMatches %d vs %d",
							g.name, n, mi, p, counts[i], oracle.CountMatches(p))
					}
					got := slices.Clone(res.Rows[res.Offsets[i]:res.Offsets[i+1]])
					want := oracle.AppendMatches(nil, p)
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					if !slices.Equal(got, want) {
						t.Fatalf("%s n=%d mask=%d key=%d: matches %v vs %v", g.name, n, mi, p, got, want)
					}
				}
				// Batch probe vs per-key oracle counts.
				for i, p := range probes {
					if res.Counts[i] != oracle.CountMatches(p) {
						t.Fatalf("%s n=%d mask=%d lane %d: batch count %d vs oracle %d",
							g.name, n, mi, i, res.Counts[i], oracle.CountMatches(p))
					}
				}
				if res.TagHits+res.TagMisses != res.Probed {
					t.Fatalf("%s n=%d mask=%d: tag split %d+%d != probed %d",
						g.name, n, mi, res.TagHits, res.TagMisses, res.Probed)
				}
			}
		}
	}
}

// TestTagStatsParity pins the new tag counters across worker counts
// and strategies: every hash-table probe (phase-2 joins plus phase-1
// semi-joins) is split into TagHits + TagMisses, the split is
// bit-identical at 1/2/8 workers (reflect.DeepEqual over the full
// Stats is covered by TestParallelStatsParity; here the tag-specific
// invariants are asserted explicitly), and on the low-match workload
// TagMisses > 0 proves the tag filter is live.
func TestTagStatsParity(t *testing.T) {
	// Low match probability: most probes miss, so the tag filter must
	// answer a nonzero share from the directory word alone.
	tr := plan.Snowflake(2, 2, plan.FixedStats(0.3, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 6000, Seed: 19})
	order := plan.Order(tr.NonRoot())

	for _, s := range cost.AllStrategies {
		var base Stats
		for i, par := range []int{1, 2, 8} {
			stats, err := Run(ds, Options{
				Strategy:    s,
				Order:       order,
				FlatOutput:  true,
				ChunkSize:   512,
				Parallelism: par,
			})
			if err != nil {
				t.Fatalf("%v parallelism %d: %v", s, par, err)
			}
			if stats.TagHits+stats.TagMisses != stats.HashProbes+stats.SemiJoinProbes {
				t.Errorf("%v par=%d: TagHits %d + TagMisses %d != HashProbes %d + SemiJoinProbes %d",
					s, par, stats.TagHits, stats.TagMisses, stats.HashProbes, stats.SemiJoinProbes)
			}
			if stats.TagMisses == 0 {
				t.Errorf("%v par=%d: no tag misses on a miss-heavy workload — tag filter dead", s, par)
			}
			if i == 0 {
				base = stats
			} else if stats.TagHits != base.TagHits || stats.TagMisses != base.TagMisses {
				t.Errorf("%v: tag counters diverge at parallelism %d: %d/%d vs %d/%d",
					s, par, stats.TagHits, stats.TagMisses, base.TagHits, base.TagMisses)
			}
		}
	}
}

// TestExecMatchesChainedOracleStats runs all six strategies on a
// mid-size workload at 1/2/8 workers and checks output count and
// checksum against the chained-oracle reference — the end-to-end
// differential test of the tagged layout under every probe path.
func TestExecMatchesChainedOracleStats(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := plan.Snowflake(2, 2, plan.UniformStats(rng, 0.4, 0.8, 1, 3))
	ds := workload.Generate(tr, workload.Config{DriverRows: 1200, Seed: 29})
	wantCount, wantSum := Reference(ds)
	if wantCount == 0 {
		t.Fatal("degenerate test dataset")
	}
	order := plan.Order(tr.NonRoot())
	for _, s := range cost.AllStrategies {
		for _, par := range []int{1, 2, 8} {
			stats, err := Run(ds, Options{
				Strategy: s, Order: order, FlatOutput: true,
				ChunkSize: 128, Parallelism: par,
			})
			if err != nil {
				t.Fatalf("%v par=%d: %v", s, par, err)
			}
			if stats.OutputTuples != wantCount || stats.Checksum != wantSum {
				t.Errorf("%v par=%d: count/checksum %d/%x diverge from chained oracle %d/%x",
					s, par, stats.OutputTuples, stats.Checksum, wantCount, wantSum)
			}
		}
	}
}
