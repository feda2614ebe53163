package hashtable

import (
	"math/rand"
	"testing"
	"testing/quick"

	"m2mjoin/internal/storage"
)

func buildRelation(keys []int64) *storage.Relation {
	r := storage.NewRelation("R", "k", "v")
	for i, k := range keys {
		r.AppendRow(k, int64(i*10))
	}
	return r
}

func TestBuildAndProbe(t *testing.T) {
	rel := buildRelation([]int64{5, 7, 5, 9, 5, 7})
	table := Build(rel, "k", nil)
	if table.Len() != 6 {
		t.Fatalf("Len = %d", table.Len())
	}
	if n := countMatches(table, 5); n != 3 {
		t.Errorf("CountMatches(5) = %d, want 3", n)
	}
	if n := countMatches(table, 7); n != 2 {
		t.Errorf("CountMatches(7) = %d, want 2", n)
	}
	if n := countMatches(table, 42); n != 0 {
		t.Errorf("CountMatches(42) = %d, want 0", n)
	}
	if !contains(table, 9) || contains(table, 8) {
		t.Errorf("Contains wrong")
	}
	rows := appendMatches(table, nil, 5)
	want := map[int32]bool{0: true, 2: true, 4: true}
	if len(rows) != 3 {
		t.Fatalf("AppendMatches(5) = %v", rows)
	}
	for _, r := range rows {
		if !want[r] {
			t.Errorf("unexpected match row %d", r)
		}
	}
}

func TestBuildWithLiveMask(t *testing.T) {
	rel := buildRelation([]int64{5, 7, 5, 9})
	live := storage.NewBitmap(4)
	live.Clear(0) // drop one of the 5s
	table := Build(rel, "k", live)
	if table.Len() != 3 {
		t.Fatalf("Len = %d, want 3", table.Len())
	}
	if n := countMatches(table, 5); n != 1 {
		t.Errorf("CountMatches(5) = %d, want 1", n)
	}
	rows := appendMatches(table, nil, 5)
	if len(rows) != 1 || rows[0] != 2 {
		t.Errorf("AppendMatches(5) = %v, want [2]", rows)
	}
}

func TestProbeBatch(t *testing.T) {
	rel := buildRelation([]int64{1, 2, 2, 3, 3, 3})
	table := Build(rel, "k", nil)
	keys := []int64{3, 4, 2, 1}
	sel := []bool{true, true, false, true}
	res := probeBatch(table, keys, sel)
	if res.Probed != 3 {
		t.Errorf("Probed = %d, want 3", res.Probed)
	}
	if res.Counts[0] != 3 || res.Counts[1] != 0 || res.Counts[2] != 0 || res.Counts[3] != 1 {
		t.Errorf("Counts = %v", res.Counts)
	}
	if int(res.Offsets[4]) != len(res.Rows) || len(res.Rows) != 4 {
		t.Errorf("Offsets/Rows inconsistent: %v / %v", res.Offsets, res.Rows)
	}
	// Key 3's matches occupy the first segment.
	seg := res.Rows[res.Offsets[0]:res.Offsets[1]]
	if len(seg) != 3 {
		t.Errorf("segment for key 3 = %v", seg)
	}
}

func TestProbeBatchNilSelection(t *testing.T) {
	rel := buildRelation([]int64{1, 1})
	table := Build(rel, "k", nil)
	res := probeBatch(table, []int64{1, 9}, nil)
	if res.Probed != 2 {
		t.Errorf("Probed = %d, want 2", res.Probed)
	}
	if res.Counts[0] != 2 || res.Counts[1] != 0 {
		t.Errorf("Counts = %v", res.Counts)
	}
}

func TestEmptyTable(t *testing.T) {
	rel := buildRelation(nil)
	table := Build(rel, "k", nil)
	if table.Len() != 0 {
		t.Fatalf("Len = %d", table.Len())
	}
	if contains(table, 1) {
		t.Errorf("empty table contains key")
	}
	if n := countMatches(table, 1); n != 0 {
		t.Errorf("CountMatches on empty = %d", n)
	}
}

// TestQuickMatchesMap: property test against a map-based oracle with
// adversarial keys (quick generates extreme int64 values).
func TestQuickMatchesMap(t *testing.T) {
	f := func(keys []int64, probes []int64) bool {
		rel := buildRelation(keys)
		table := Build(rel, "k", nil)
		oracle := make(map[int64]int32, len(keys))
		for _, k := range keys {
			oracle[k]++
		}
		for _, p := range probes {
			if countMatches(table, p) != oracle[p] {
				return false
			}
			if contains(table, p) != (oracle[p] > 0) {
				return false
			}
		}
		// Also probe every inserted key.
		for _, k := range keys {
			if countMatches(table, k) != oracle[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Nearby keys must not collide in the high bits used for buckets.
	seen := make(map[uint64]int64)
	for i := int64(0); i < 100000; i++ {
		h := Hash64(i) >> 48 // 16-bit bucket space
		_ = h
	}
	// Distribution check: bucket occupancy of sequential keys should be
	// near-uniform across 256 buckets.
	var buckets [256]int
	const n = 256 * 64
	for i := int64(0); i < n; i++ {
		buckets[Hash64(i)>>56]++
	}
	for b, c := range buckets {
		if c == 0 {
			t.Fatalf("bucket %d empty: hash badly distributed", b)
		}
		if c > 3*64 {
			t.Fatalf("bucket %d overloaded: %d", b, c)
		}
	}
	_ = seen
}

func TestLongChains(t *testing.T) {
	// Many duplicates of one key: one bucket's chain holds every entry,
	// and walking it must find them all in ascending row order, under a
	// mask too.
	keys := make([]int64, 5000)
	for i := range keys {
		keys[i] = 7
	}
	rel := buildRelation(keys)
	live := storage.NewBitmap(len(keys))
	for i := 0; i < len(keys); i += 3 {
		live.Clear(i)
	}
	for _, mask := range []*storage.Bitmap{nil, live} {
		table := Build(rel, "k", mask)
		rows := appendMatches(table, nil, 7)
		if len(rows) != table.Len() {
			t.Fatalf("masked=%v: chain walk found %d of %d rows", mask != nil, len(rows), table.Len())
		}
		for i := 1; i < len(rows); i++ {
			if rows[i] <= rows[i-1] {
				t.Fatalf("masked=%v: rows %d, %d out of order", mask != nil, rows[i-1], rows[i])
			}
		}
	}
}

// BenchmarkProbeCountsHit measures the count probe with every key
// present (one op = one 2048-key batch).
func BenchmarkProbeCountsHit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 1<<16)
	for i := range keys {
		keys[i] = rng.Int63n(1 << 14)
	}
	rel := buildRelation(keys)
	table := Build(rel, "k", nil)
	probes := keys[:2048]
	counts := make([]int32, len(probes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.ProbeCounts(probes, nil, counts)
	}
}
