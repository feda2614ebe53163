package bitvector

import (
	"math/bits"
	"math/rand"
	"testing"

	"m2mjoin/internal/storage"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 8)
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 1000)
	for i := range keys {
		keys[i] = rng.Int63()
		f.Add(keys[i])
	}
	for _, k := range keys {
		if !f.MayContain(k) {
			t.Fatalf("false negative for %d", k)
		}
	}
}

func TestFalsePositiveRateBounded(t *testing.T) {
	const n = 10000
	f := New(n, 8)
	rng := rand.New(rand.NewSource(2))
	inserted := make(map[int64]bool, n)
	for i := 0; i < n; i++ {
		k := rng.Int63()
		inserted[k] = true
		f.Add(k)
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		k := rng.Int63()
		if inserted[k] {
			continue
		}
		if f.MayContain(k) {
			fp++
		}
	}
	rate := float64(fp) / probes
	// Single-hash filter at 8 bits/key (power-of-two rounded): the fill
	// ratio bounds the FP rate; allow generous slack.
	if rate > 0.2 {
		t.Errorf("false positive rate %v too high", rate)
	}
	set := 0
	for _, w := range f.Words() {
		set += bits.OnesCount64(w)
	}
	if fill := float64(set) / float64(len(f.Words())*64); fill <= 0 || fill > 0.7 {
		t.Errorf("fill ratio %v out of expected range", fill)
	}
}

func TestBuildFromColumn(t *testing.T) {
	rel := storage.NewRelation("R", "k")
	for i := int64(0); i < 100; i++ {
		rel.AppendRow(i)
	}
	live := storage.NewBitmap(100)
	for i := 50; i < 100; i++ {
		live.Clear(i)
	}
	f := BuildFromColumn(rel, "k", live, 8)
	for i := int64(0); i < 50; i++ {
		if !f.MayContain(i) {
			t.Fatalf("false negative for live key %d", i)
		}
	}
	// Dead keys may false-positive but most should be absent.
	misses := 0
	for i := int64(50); i < 100; i++ {
		if !f.MayContain(i) {
			misses++
		}
	}
	if misses < 25 {
		t.Errorf("live mask apparently ignored: only %d misses", misses)
	}
}

func TestDefaultDensity(t *testing.T) {
	f := New(10, 0) // 0 selects the default
	for i := int64(0); i < 10; i++ {
		f.Add(i)
	}
	for i := int64(0); i < 10; i++ {
		if !f.MayContain(i) {
			t.Fatalf("false negative")
		}
	}
}

func TestTinyFilter(t *testing.T) {
	f := New(0, 8)
	if f.MayContain(42) {
		t.Errorf("empty filter claims membership")
	}
	f.Add(42)
	if !f.MayContain(42) {
		t.Errorf("missing inserted key")
	}
}

// TestBuildFromColumnSkipsDeadRows: with a sparse packed mask only the
// set rows' keys may be registered.
func TestBuildFromColumnSkipsDeadRows(t *testing.T) {
	rel := storage.NewRelation("R", "k")
	n := 10000
	for i := 0; i < n; i++ {
		rel.AppendRow(int64(i))
	}
	live := storage.NewEmptyBitmap(n)
	live.Set(70)
	live.Set(4097)
	f := BuildFromColumn(rel, "k", live, 8)
	if f.n != 2 {
		t.Fatalf("inserted %d keys, want 2", f.n)
	}
	if !f.MayContain(70) || !f.MayContain(4097) {
		t.Fatalf("live keys missing from filter")
	}
}
