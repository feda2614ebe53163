package hashtable

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"m2mjoin/internal/storage"
)

// memoryRelation is a rows-long relation with a duplicate-heavy key.
func memoryRelation(rows int) *storage.Relation {
	rel := storage.NewRelation("r", "k")
	for i := 0; i < rows; i++ {
		rel.AppendRow(int64(i * 7 % 97))
	}
	return rel
}

// TestMemoryBytesMatchesSliceFootprints pins MemoryBytes against the
// actual footprints of the arrays the table owns (len == cap for each:
// the build allocates them at exact size) plus the filter projection,
// across dense- and sparse-masked, unmasked, empty and large-table
// sizings; pins that only a sparse mask gets a row map and that the
// keys are the relation's own column, not a copy; and pins that
// deriving the projection does not move the charge: the charge a cache
// took at insert stays exact after the table's first BVP use.
func TestMemoryBytesMatchesSliceFootprints(t *testing.T) {
	cases := []struct {
		name           string
		rows           int
		masked, sparse bool // sparse: one row in three live, else two
	}{
		{"empty", 0, false, false},
		{"small", 100, false, false},
		{"small masked", 100, true, false},
		{"small sparse", 100, true, true},
		{"pow2 boundary", 4096, false, false},
		{"odd", 4097, true, false},
		{"odd sparse", 4097, true, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rel := memoryRelation(tc.rows)
			var live *storage.Bitmap
			if tc.masked {
				live = storage.NewBitmap(tc.rows)
				for i := 0; i < tc.rows; i++ {
					if (i%3 == 0) != tc.sparse {
						live.Clear(i)
					}
				}
			}
			tbl := Build(rel, "k", live)
			want := int64(len(tbl.rows))*4 + int64(len(tbl.next))*4 + int64(len(tbl.dir))*8 + int64(tbl.NumBuckets())
			if cap(tbl.rows) != len(tbl.rows) || cap(tbl.next) != len(tbl.next) || cap(tbl.dir) != len(tbl.dir) {
				t.Fatalf("backing arrays over-allocated: caps %d/%d/%d vs lens %d/%d/%d",
					cap(tbl.rows), cap(tbl.next), cap(tbl.dir), len(tbl.rows), len(tbl.next), len(tbl.dir))
			}
			if (tbl.rows != nil) != tc.sparse {
				t.Fatalf("row map present = %v on a sparse = %v build", tbl.rows != nil, tc.sparse)
			}
			if col := rel.Column("k"); tc.rows > 0 && &tbl.keys[0] != &col[0] {
				t.Fatal("the table copied its keys instead of reading the relation's column")
			}
			if got := tbl.MemoryBytes(); got != want {
				t.Fatalf("MemoryBytes = %d, slice footprints = %d", got, want)
			}
			// Cross-check against the public geometry: a next link of 4
			// bytes per row (per entry, Len, plus 4 more for the row map
			// under a sparse mask), the directory at 8 bytes a bucket
			// and the projection at one.
			links := int64(tc.rows) * 4
			if tc.sparse {
				links = int64(tbl.Len()) * 8
			}
			pub := links + int64(tbl.NumBuckets())*9
			if got := tbl.MemoryBytes(); got != pub {
				t.Fatalf("MemoryBytes = %d, public-geometry footprint = %d", got, pub)
			}
			words := tbl.FilterWords()
			if cap(words) != len(words) || int64(len(words))*8 != int64(tbl.NumBuckets()) {
				t.Fatalf("projection holds %d words (cap %d) for %d buckets", len(words), cap(words), tbl.NumBuckets())
			}
			if got := tbl.MemoryBytes(); got != want {
				t.Fatalf("MemoryBytes moved to %d after the projection was derived, want %d", got, want)
			}
		})
	}
}

// TestMemoryNeverAboveBucketSorted: at every mask density, unmasked or
// masked, small or past largeTableRows, a table takes no more bytes
// than the bucket-sorted layout it replaced — 12 bytes per entry (an
// 8-byte key copy and a 4-byte row) plus a directory with a sentinel
// slot and the one-byte-per-bucket projection.
func TestMemoryNeverAboveBucketSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1000, largeTableRows + 5000} {
		rel := memoryRelation(n)
		tables := map[string]*Table{"unmasked": Build(rel, "k", nil)}
		for _, frac := range []float64{0, 0.1, 1.0 / 3, 0.7, 1} {
			tables[fmt.Sprintf("live %.2f", frac)] = Build(rel, "k", randomMask(rng, n, frac))
		}
		for name, tbl := range tables {
			entries, buckets := int64(tbl.Len()), int64(tbl.NumBuckets())
			bound := 12*entries + 8*(buckets+1) + buckets
			if got := tbl.MemoryBytes(); got > bound {
				t.Errorf("n=%d %s: MemoryBytes %d above the bucket-sorted %d", n, name, got, bound)
			}
		}
	}
}

// TestBuildAllocatesOnlyItsArrays: a build allocates the Table value,
// its directory and next links, and under a sparse mask its row map —
// nothing
// else, no scratch and no key copy — and the bytes it allocates are
// those arrays' footprint up to the allocator's size-class rounding.
func TestBuildAllocatesOnlyItsArrays(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n = 3*morselRows + 17
	rel := memoryRelation(n)
	for _, tc := range []struct {
		name string
		live *storage.Bitmap
	}{
		{"unmasked", nil},
		{"dense mask", randomMask(rng, n, 0.8)},
		{"sparse mask", randomMask(rng, n, 0.4)},
		{"empty mask", storage.NewEmptyBitmap(n)},
	} {
		tbl := Build(rel, "k", tc.live)
		if (tbl.rows != nil) != (tc.live != nil && 2*tc.live.Count() < n) {
			t.Fatalf("%s: row map present = %v", tc.name, tbl.rows != nil)
		}
		want := 2.0 // the Table and its directory
		if len(tbl.next) > 0 {
			want++
		}
		if len(tbl.rows) > 0 {
			want++
		}
		if got := testing.AllocsPerRun(10, func() { Build(rel, "k", tc.live) }); got != want {
			t.Errorf("%s: %.1f allocations per build, want %.0f", tc.name, got, want)
		}
		footprint := uint64(tbl.arrayBytes()) + uint64(unsafe.Sizeof(Table{}))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const reps = 10
		for range reps {
			Build(rel, "k", tc.live)
		}
		runtime.ReadMemStats(&after)
		if got := (after.TotalAlloc - before.TotalAlloc) / reps; got < footprint || got > footprint+footprint/8+1024 {
			t.Errorf("%s: %d bytes allocated per build, arrays and header take %d", tc.name, got, footprint)
		}
	}
}
