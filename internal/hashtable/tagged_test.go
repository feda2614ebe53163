package hashtable

import (
	"math/rand"
	"testing"
)

// TestDirectoryRunInvariants pins the unchained layout: run offsets in
// the directory are monotone, the sentinel slot holds the total count,
// every entry's key hashes into its own bucket, and every bucket's tag
// word covers the tags of its keys.
func TestDirectoryRunInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 100, 5000} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(int64(n/2 + 1))
		}
		table := Build(buildRelation(keys), "k", nil)
		size := len(table.dir) - 1
		if table.dir[size]>>offShift != uint64(n) {
			t.Fatalf("n=%d: sentinel offset %d, want %d", n, table.dir[size]>>offShift, n)
		}
		for b := 0; b < size; b++ {
			start := table.dir[b] >> offShift
			end := table.dir[b+1] >> offShift
			if start > end {
				t.Fatalf("n=%d bucket %d: run [%d,%d) not monotone", n, b, start, end)
			}
			tag := table.dir[b] & tagMask
			if start == end && tag != 0 {
				t.Fatalf("n=%d bucket %d: empty run with tag %#x", n, b, tag)
			}
			for e := start; e < end; e++ {
				h := Hash64(table.keys[e])
				if h>>table.shift != uint64(b) {
					t.Fatalf("n=%d: entry %d in bucket %d, hashes to %d", n, e, b, h>>table.shift)
				}
				if tag&table.tag(h) == 0 {
					t.Fatalf("n=%d bucket %d: tag word %#x missing bit of key %d",
						n, b, tag, table.keys[e])
				}
			}
		}
	}
}

// TestTagFilterCounters: on a probe workload with a disjoint key space
// the tag filter must answer (nearly) everything from the directory
// word — TagMisses dominates — and on an all-hit workload every probe
// must be a TagHit. In both cases TagHits+TagMisses == Probed.
func TestTagFilterCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	build := make([]int64, 4096)
	for i := range build {
		build[i] = rng.Int63n(1 << 20)
	}
	table := Build(buildRelation(build), "k", nil)

	// Miss-heavy: keys from a disjoint space.
	misses := make([]int64, 4096)
	for i := range misses {
		misses[i] = (1 << 40) + rng.Int63n(1<<20)
	}
	var res ProbeResult
	table.ProbeBatchInto(misses, nil, &res)
	if res.Probed != len(misses) || res.TagHits+res.TagMisses != res.Probed {
		t.Fatalf("tag split %d+%d inconsistent with probed %d", res.TagHits, res.TagMisses, res.Probed)
	}
	if res.TagMisses == 0 {
		t.Fatalf("miss-heavy probe recorded no tag misses")
	}
	// The 16-bit tag should answer the vast majority of misses without
	// a key load; at load factor <= 1 a bucket holds ~1 key (~1 of 16
	// tag bits set), so the expected false-survivor rate is around
	// 1/16. Allow generous slack below the implied ~94% miss rate.
	if float64(res.TagMisses) < 0.8*float64(res.Probed) {
		t.Errorf("tag filter weak: only %d/%d misses answered by tags", res.TagMisses, res.Probed)
	}

	// All-hit: probe the build keys themselves.
	table.ProbeBatchInto(build, nil, &res)
	if res.TagMisses != 0 || res.TagHits != res.Probed {
		t.Errorf("all-hit probe: tag split %d+%d, want %d+0", res.TagHits, res.TagMisses, res.Probed)
	}
	for i, c := range res.Counts {
		if c < 1 {
			t.Fatalf("build key %d lost: count %d", build[i], c)
		}
	}
}

// TestLargeTableRelaxedLoad exercises the load-<=-2 sizing branch that
// kicks in above largeTableRows: the denser directory must still index
// every key exactly (differential check against a map oracle on hits,
// misses and duplicates) and keep the run/tag invariants.
func TestLargeTableRelaxedLoad(t *testing.T) {
	n := largeTableRows + largeTableRows/2
	rng := rand.New(rand.NewSource(33))
	keys := make([]int64, n)
	oracle := make(map[int64]int32, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(n / 2))
		oracle[keys[i]]++
	}
	table := Build(buildRelation(keys), "k", nil)
	if size := len(table.dir) - 1; size >= n {
		t.Fatalf("large table not densified: %d buckets for %d rows", size, n)
	}
	if table.dir[len(table.dir)-1]>>offShift != uint64(n) {
		t.Fatalf("sentinel offset %d, want %d", table.dir[len(table.dir)-1]>>offShift, n)
	}
	probes := make([]int64, 4096)
	for i := range probes {
		probes[i] = rng.Int63n(int64(n)) // ~50% present
	}
	var res ProbeResult
	table.ProbeBatchInto(probes, nil, &res)
	for i, p := range probes {
		if res.Counts[i] != oracle[p] {
			t.Fatalf("key %d: batch count %d, oracle %d", p, res.Counts[i], oracle[p])
		}
		if countMatches(table, p) != oracle[p] {
			t.Fatalf("key %d: CountMatches %d, oracle %d", p, countMatches(table, p), oracle[p])
		}
	}
	if res.TagHits+res.TagMisses != res.Probed || res.TagMisses == 0 {
		t.Fatalf("tag split %d+%d inconsistent at load <= 2", res.TagHits, res.TagMisses)
	}
}

// TestTagProbePathsAllocationFree: the batch probes — ProbeBatchInto
// with a reused result, and the stack-scratch ProbeContains /
// ProbeCounts / ReduceLive — must not allocate in steady state, on a
// plain table or on one with tombstones and an append region.
func TestTagProbePathsAllocationFree(t *testing.T) {
	plain, keys, sel := randomProbe(9, 4096)
	rel := buildRelation(keys)
	keyCol := rel.Column("k")
	mask := randomMask(rand.New(rand.NewSource(10)), len(keys), 0.7)
	clone := mask.Clone()
	out := make([]bool, len(keys))
	counts := make([]int32, len(keys))

	for _, tc := range []struct {
		name  string
		table *Table
	}{{"plain", plain}, {"delta", deltaProbeTable(t, 11, 4096)}} {
		table := tc.table
		var res ProbeResult
		table.ProbeBatchInto(keys, nil, &res) // reach steady state
		checks := []struct {
			name string
			fn   func()
		}{
			{"ProbeBatchInto", func() { table.ProbeBatchInto(keys, sel, &res) }},
			{"ProbeContains", func() { table.ProbeContains(keys, sel, out) }},
			{"ProbeCounts", func() { table.ProbeCounts(keys, sel, counts) }},
			{"ReduceLive", func() {
				clone.CopyFrom(mask)
				table.ReduceLive(keyCol, clone, 0, clone.Len())
			}},
		}
		for _, c := range checks {
			if allocs := testing.AllocsPerRun(20, c.fn); allocs > 0 {
				t.Errorf("%s table: %s allocates %.1f times per call in steady state", tc.name, c.name, allocs)
			}
		}
	}
}

// BenchmarkProbeBatchMiss measures the tag-filtered no-match path: all
// probe keys come from a disjoint key space, so nearly every probe is
// answered by one directory word.
func BenchmarkProbeBatchMiss(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	build := make([]int64, 1<<16)
	for i := range build {
		build[i] = rng.Int63n(1 << 14)
	}
	table := Build(buildRelation(build), "k", nil)
	keys := make([]int64, 2048)
	for i := range keys {
		keys[i] = (1 << 40) + rng.Int63n(1<<20)
	}
	var res ProbeResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.ProbeBatchInto(keys, nil, &res)
	}
}

// BenchmarkProbeBatchHit measures the run-scan path: every probe key
// is present, so every probe survives the tag filter and verifies a
// contiguous run.
func BenchmarkProbeBatchHit(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	build := make([]int64, 1<<16)
	for i := range build {
		build[i] = rng.Int63n(1 << 14)
	}
	table := Build(buildRelation(build), "k", nil)
	keys := make([]int64, 2048)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 14)
	}
	var res ProbeResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.ProbeBatchInto(keys, nil, &res)
	}
}
