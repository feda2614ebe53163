package hashtable

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"m2mjoin/internal/storage"
)

// TestChainInvariants pins the chained layout on unmasked, masked
// (dense and sparse) and versioned tables across morsel boundaries:
// every retained row's entry, and no other, is reachable from exactly
// one head, hashes into that head's bucket, and every
// chain ascends in entry and row order; each head's tag is exactly the
// OR of its members' tags, and an empty bucket's head word is 0.
func TestChainInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 100, 5000, morselRows + 1, 3 * morselRows} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(int64(n/2 + 1))
		}
		rel := buildRelation(keys)
		masks := []*storage.Bitmap{nil}
		if n > 0 {
			masks = append(masks, randomMask(rng, n, 0.8), randomMask(rng, n, 0.3), randomMask(rng, n, 0.01))
		}
		for i, live := range masks {
			checkChains(t, fmt.Sprintf("n=%d table %d", n, i), Build(rel, "k", live), live)
		}
	}
	dt := deltaProbeTable(t, 9, 2048)
	checkChains(t, "delta", dt, nil)
	checkChains(t, "delta append region", dt.app, nil)
}

// checkChains walks every chain of tbl and fails on the first broken
// invariant of TestChainInvariants; live is the build's mask.
func checkChains(t *testing.T, name string, tbl *Table, live *storage.Bitmap) {
	t.Helper()
	seen := make([]bool, len(tbl.next))
	for b, w := range tbl.dir {
		var tags uint64
		prev := int32(-1)
		for link := int32(w >> linkShift); link != 0; link = tbl.next[link-1] {
			e := link - 1
			if seen[e] {
				t.Fatalf("%s: entry %d reached twice", name, e)
			}
			seen[e] = true
			h := Hash64(tbl.key(e))
			if h>>tbl.shift != uint64(b) {
				t.Fatalf("%s: entry %d in bucket %d, hashes to %d", name, e, b, h>>tbl.shift)
			}
			if e <= prev || (prev >= 0 && tbl.row(e) <= tbl.row(prev)) {
				t.Fatalf("%s bucket %d: chain steps from entry %d (row %d) to %d (row %d)",
					name, b, prev, tbl.row(prev), e, tbl.row(e))
			}
			prev = e
			tags |= Tag(h, tbl.shift, tagWidth)
		}
		if w&tagMask != tags {
			t.Fatalf("%s bucket %d: head tag %#x, members' tags %#x", name, b, w&tagMask, tags)
		}
		if tags == 0 && w != 0 {
			t.Fatalf("%s bucket %d: empty bucket's head word %#x", name, b, w)
		}
	}
	for e, ok := range seen {
		if retained := tbl.rows != nil || live == nil || live.Get(e); ok != retained {
			t.Fatalf("%s: entry %d on a chain = %v, row retained = %v", name, e, ok, retained)
		}
	}
	if tbl.rows != nil && !slices.IsSorted(tbl.rows) {
		t.Fatalf("%s: row map not ascending", name)
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
// misses and duplicates) and keep the chain/tag invariants.
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
	if size := table.NumBuckets(); size >= n {
		t.Fatalf("large table not densified: %d buckets for %d rows", size, n)
	}
	if table.Len() != n {
		t.Fatalf("Len %d, want %d", table.Len(), n)
	}
	checkChains(t, "large", table, nil)
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

// BenchmarkProbeBatchHit measures the chain-walk path: every probe key
// is present, so every probe survives the tag filter and walks its
// bucket's chain.
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
