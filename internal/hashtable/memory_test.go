package hashtable

import (
	"testing"

	"m2mjoin/internal/storage"
)

// TestMemoryBytesMatchesSliceFootprints pins MemoryBytes against the
// actual backing-slice footprints (len == cap for all three arrays:
// the build allocates them at exact size) plus the filter projection,
// across masked, unmasked, empty and large-table sizings — and pins
// that deriving the projection does not move it: the charge a cache
// took at insert stays exact after the table's first BVP use.
func TestMemoryBytesMatchesSliceFootprints(t *testing.T) {
	build := func(rows int, masked bool) *Table {
		rel := storage.NewRelation("r", "k")
		for i := 0; i < rows; i++ {
			rel.AppendRow(int64(i * 7 % 97))
		}
		var live *storage.Bitmap
		if masked {
			live = storage.NewBitmap(rows)
			for i := 0; i < rows; i += 3 {
				live.Clear(i)
			}
		}
		return Build(rel, "k", live)
	}
	cases := []struct {
		name   string
		rows   int
		masked bool
	}{
		{"empty", 0, false},
		{"small", 100, false},
		{"small masked", 100, true},
		{"pow2 boundary", 4096, false},
		{"odd", 4097, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tbl := build(tc.rows, tc.masked)
			want := int64(len(tbl.keys))*8 + int64(len(tbl.rows))*4 + int64(len(tbl.dir))*8 + int64(tbl.NumBuckets())
			if cap(tbl.keys) != len(tbl.keys) || cap(tbl.rows) != len(tbl.rows) || cap(tbl.dir) != len(tbl.dir) {
				t.Fatalf("backing arrays over-allocated: caps %d/%d/%d vs lens %d/%d/%d",
					cap(tbl.keys), cap(tbl.rows), cap(tbl.dir), len(tbl.keys), len(tbl.rows), len(tbl.dir))
			}
			if got := tbl.MemoryBytes(); got != want {
				t.Fatalf("MemoryBytes = %d, slice footprints = %d", got, want)
			}
			// Cross-check against the public geometry: Len retained
			// entries at 12 bytes each plus the directory (NumBuckets
			// slots + sentinel) at 8 and the projection at one byte per
			// bucket.
			pub := int64(tbl.Len())*12 + int64(tbl.NumBuckets()+1)*8 + int64(tbl.NumBuckets())
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
