package exec

import (
	"math/rand"
	"reflect"
	"testing"
)

// The differential tests of this file are lists of execCase seed tuples
// run through checkCase, the body of FuzzExecCounters: every run of
// every seed is held to the countingReference and ReferenceOpts, and a
// failure prints the tuple that reproduces it. They share no state but
// the scratch free list, so they run in parallel, after the package's
// sequential tests (the allocation budgets among them) have finished.

// strategies is c under each of the six strategies.
func strategies(c execCase) []execCase {
	cs := make([]execCase, 6)
	for i := range cs {
		cs[i] = c
		cs[i].strategy = uint8(i)
	}
	return cs
}

// checkAll runs every case through checkCase.
func checkAll(t *testing.T, cases ...execCase) {
	t.Helper()
	for _, c := range cases {
		checkCase(t, c)
	}
}

// requireSame runs the first case through checkCase and fails t unless
// every other case's query reports exactly its Stats: every counter,
// the tag splits and the checksum, not only those the reference
// defines.
func requireSame(t *testing.T, cases ...execCase) {
	t.Helper()
	want := checkCase(t, cases[0])
	if want.OutputTuples == 0 {
		t.Fatalf("%+v: no output tuples, so equal Stats prove little", cases[0])
	}
	for _, c := range cases[1:] {
		ds, opts, _ := c.query()
		if got := must(Run(ds, opts)); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v reports\n %+v\n%+v reports\n %+v", c, got, cases[0], want)
		}
	}
}

// perWorkers requires c to report the same Stats at 1, 2 and 8 workers.
func perWorkers(t *testing.T, c execCase) {
	t.Helper()
	cs := []execCase{c, c, c}
	for i := range cs {
		cs[i].workers = uint8(i)
	}
	requireSame(t, cs...)
}

// drawCase draws a case from rng, with a selection, skewed fanouts,
// shards, commits and a provider each in a fraction of the draws.
func drawCase(rng *rand.Rand) execCase {
	c := execCase{
		shape: uint8(rng.Intn(3)), nrel: uint8(rng.Intn(5)), m: uint8(rng.Intn(100)), fo: uint8(rng.Intn(5)),
		rows: uint16(rng.Intn(3001)), strategy: uint8(rng.Intn(6)), flat: rng.Intn(2) == 0,
		workers: uint8(rng.Intn(3)), chunk: uint16(rng.Intn(2048)), collect: rng.Intn(3) == 0, seed: rng.Int63(),
		provider: uint8(rng.Intn(3)),
	}
	if rng.Intn(8) == 0 {
		c.fo |= 0x80
	}
	if rng.Intn(3) == 0 {
		c.sel = uint8(1 + rng.Intn(255))
	}
	if rng.Intn(3) == 0 {
		c.shards = uint8(1 + rng.Intn(4))
	}
	if rng.Intn(3) == 0 {
		c.commits = uint8(1 + rng.Intn(7))
	}
	return c
}

// TestPhase1ParallelParity: a path of six relations at m = 1 grows past
// every parallel phase-1 threshold (two-morsel builds, parallel
// semi-join spans), and each strategy reports the same Stats at 1, 2
// and 8 workers.
func TestPhase1ParallelParity(t *testing.T) {
	t.Parallel()
	for _, c := range strategies(execCase{shape: 1, nrel: 4, m: 99, fo: 4, rows: 3000, flat: true, chunk: 511, seed: 31}) {
		perWorkers(t, c)
	}
}

// TestPhase1ParallelParityWithSelections is the masked variant: one
// row of relation 1 survives a selection, so a very sparse packed mask
// goes through the builds, filters and semi-join pass.
func TestPhase1ParallelParityWithSelections(t *testing.T) {
	t.Parallel()
	for _, c := range strategies(execCase{shape: 1, nrel: 2, m: 89, fo: 4, rows: 3000, flat: true, chunk: 255, sel: 31<<3 | 1, seed: 13}) {
		perWorkers(t, c)
	}
}

// TestParallelStatsParity: a snowflake over many chunks, flat and
// factorized, reports the same Stats at 1, 2 and 8 workers.
func TestParallelStatsParity(t *testing.T) {
	t.Parallel()
	for _, flat := range []bool{true, false} {
		for _, c := range strategies(execCase{shape: 2, nrel: 4, m: 59, fo: 4, rows: 3000, flat: flat, chunk: 255, seed: 7}) {
			perWorkers(t, c)
		}
	}
}

// TestParallelMatchesReference: small random queries over chunks of 16
// rows at 8 workers.
func TestParallelMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		checkAll(t, strategies(execCase{shape: uint8(rng.Intn(3)), nrel: uint8(rng.Intn(5)), m: 19, fo: 4,
			rows: uint16(60 + rng.Intn(60)), flat: true, workers: 2, chunk: 15, seed: int64(trial*17 + 5)})...)
	}
}

// TestShardMergeDeterminismMatrix: 2–5 shards at 1, 2 and 8 workers
// merge to the unsharded Stats, for every strategy.
func TestShardMergeDeterminismMatrix(t *testing.T) {
	t.Parallel()
	for _, c := range strategies(execCase{shape: 2, nrel: 4, m: 59, fo: 4, rows: 3000, flat: true, chunk: 255, seed: 7}) {
		for shards := uint8(1); shards <= 4; shards++ {
			c.shards, c.workers = shards, shards%3
			checkCase(t, c)
		}
	}
}

// TestShardMergeDeterminismMasked is the masked half of the matrix: a
// selection on the driver or on a build-side relation, and commits
// whose tombstones mask every relation, under 2 and 4 shards.
func TestShardMergeDeterminismMasked(t *testing.T) {
	t.Parallel()
	for _, sel := range []uint8{3<<3 | 0, 2<<3 | 1, 5<<3 | 3} {
		for _, c := range strategies(execCase{shape: 2, nrel: 3, m: 79, fo: 4, rows: 2400, flat: true, chunk: 127, sel: sel, seed: 61}) {
			c.shards, c.commits = 1, sel&1+1
			checkCase(t, c)
			c.shards, c.workers = 3, 2
			checkCase(t, c)
		}
	}
}

// TestShardMergeDeterminismRandom: drawn sharded cases with one to
// three commits, each checked on the partition shard.Advance carries.
func TestShardMergeDeterminismRandom(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(20260925))
	for i := 0; i < 12; i++ {
		c := drawCase(rng)
		c.shards, c.commits = uint8(1+rng.Intn(4)), c.commits|uint8(1+rng.Intn(3))
		checkCase(t, c)
	}
}

// TestProviderDifferentialOverCommits: over three commits, a cold
// provider, one carried forward by ApplyDelta and the plan-time tables
// of an edge-statistics cache measuring every version change nothing
// but the cache counters, for every strategy; a selected relation is
// never served a carried or plan-time table.
func TestProviderDifferentialOverCommits(t *testing.T) {
	t.Parallel()
	for _, sel := range []uint8{0, 4<<3 | 2} {
		for _, c := range strategies(execCase{shape: 2, nrel: 3, m: 79, fo: 4, rows: 600, flat: true, workers: 1, chunk: 127, sel: sel, seed: 41, commits: 3}) {
			for provider := uint8(1); provider <= 3; provider++ {
				c.provider = provider
				checkCase(t, c)
			}
		}
	}
}

// TestVersionedExecutionMatchesReference: append/delete/compact chains
// on small random trees, every version, strategy and worker count, and
// version 0 still answers as itself after the commits.
func TestVersionedExecutionMatchesReference(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 4; trial++ {
		for _, c := range strategies(execCase{shape: uint8(trial), nrel: 3, m: 19, fo: 4, rows: uint16(40 + trial*13),
			flat: true, seed: int64(trial*29 + 13), commits: 7}) {
			for w := uint8(0); w < 3; w++ {
				c.workers = w
				checkCase(t, c)
			}
		}
	}
}

// TestVersionedSelectionsMatchReference: selections on snapshots with
// tombstones and an append region, with and without compaction.
func TestVersionedSelectionsMatchReference(t *testing.T) {
	t.Parallel()
	for _, commits := range []uint8{3, 7} {
		checkAll(t, strategies(execCase{shape: 1, nrel: 2, m: 49, fo: 4, rows: 60, flat: true, sel: 2<<3 | 1, seed: 71, commits: commits})...)
	}
}

// TestAllStrategiesMatchReference: random small queries at chunk sizes
// 7, 1 024 and math.MaxInt.
func TestAllStrategiesMatchReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		c := execCase{shape: uint8(rng.Intn(3)), nrel: uint8(rng.Intn(5)), m: uint8(rng.Intn(90)), fo: uint8(rng.Intn(5)),
			rows: uint16(40 + rng.Intn(60)), flat: true, seed: int64(trial*31 + 7)}
		for _, chunk := range []uint16{6, 1023, 0xFFFF} {
			c.chunk = chunk
			checkAll(t, strategies(c)...)
		}
	}
}

// TestAllOrdersSameOutput: every valid join order of a star of four
// and of a snowflake of six meets the reference, under STD and the
// three factorized strategies. Orders are drawn per seed, so seeds are
// tried until every order has run.
func TestAllOrdersSameOutput(t *testing.T) {
	t.Parallel()
	for _, base := range []execCase{{shape: 0, nrel: 3, m: 49, fo: 4, rows: 60, flat: true}, {shape: 2, nrel: 4, m: 49, fo: 4, rows: 60, flat: true}} {
		ds, _, _ := base.query()
		want := len(ds.Tree.AllOrders())
		seen := map[string]bool{}
		for seed := int64(0); len(seen) < want; seed++ {
			if seed == 5000 {
				t.Fatalf("%+v: %d of %d orders drawn in 5000 seeds", base, len(seen), want)
			}
			base.seed = seed
			if _, opts, _ := base.query(); !seen[opts.Order.String()] {
				seen[opts.Order.String()] = true
				for _, s := range []uint8{0, 3, 4, 5} { // STD, COM, BVP+COM, SJ+COM
					base.strategy = s
					checkCase(t, base)
				}
			}
		}
	}
}

// TestInterleavedMatchesSequential: a star, a path and a snowflake of
// six relations, every strategy at 1, 2 and 8 workers.
func TestInterleavedMatchesSequential(t *testing.T) {
	t.Parallel()
	for shape := uint8(0); shape < 3; shape++ {
		for _, c := range strategies(execCase{shape: shape, nrel: 4, m: 49, fo: 4, rows: 2500, flat: true, chunk: 511, seed: 19}) {
			perWorkers(t, c)
		}
	}
}

// TestInterleavedMatchesSequentialSelections: a selection on the
// driver, on an inner relation and on a leaf, so the filter passes and
// table probes run behind sparse selection masks.
func TestInterleavedMatchesSequentialSelections(t *testing.T) {
	t.Parallel()
	for _, sel := range []uint8{7<<3 | 0, 2<<3 | 1, 9<<3 | 3} {
		for _, c := range strategies(execCase{shape: 2, nrel: 3, m: 79, fo: 4, rows: 1500, flat: true, chunk: 255, sel: sel, seed: 91}) {
			c.workers = 0
			checkCase(t, c)
			c.workers = 2
			checkCase(t, c)
		}
	}
}

// TestInterleavedMatchesSequentialSkewed: Zipf fanouts with dangling
// child rows on a star, flat and factorized, so table runs and the
// expansion see non-uniform match lists.
func TestInterleavedMatchesSequentialSkewed(t *testing.T) {
	t.Parallel()
	for _, flat := range []bool{true, false} {
		checkAll(t, strategies(execCase{shape: 0, nrel: 3, m: 39, fo: 0x84, rows: 3000, flat: flat, chunk: 511, seed: 23})...)
	}
}

// TestInterleavedAllocationsChunkCountInvariant: the chunk count moves
// no counter — 2 chunks and 12 report the same Stats. The allocations
// side is TestAllocationsChunkCountInvariant's.
func TestInterleavedAllocationsChunkCountInvariant(t *testing.T) {
	t.Parallel()
	for _, c := range strategies(execCase{shape: 2, nrel: 4, m: 69, fo: 4, rows: 3000, flat: true, seed: 11}) {
		few, many := c, c
		few.chunk, many.chunk = 2047, 255
		requireSame(t, few, many)
	}
}
