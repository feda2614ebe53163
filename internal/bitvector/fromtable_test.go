package bitvector

import (
	"math/rand"
	"reflect"
	"testing"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/storage"
)

// TestFromTableMatchesDirectInsertion: the filter derived from a
// tagged table's directory must be bit-identical to inserting every
// retained key into a filter of the same geometry — the derivation is
// a pure re-reading of the table's bucket/tag bits, not an
// approximation.
func TestFromTableMatchesDirectInsertion(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// 200000 crosses the table's large-table threshold, covering the
	// denser load-<=-2 directory geometry the filter derives from.
	for _, n := range []int{0, 10, 1000, 20000, 200000} {
		rel := storage.NewRelation("R", "k")
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = rng.Int63n(int64(n/2 + 1))
			rel.AppendRow(keys[i])
		}
		var live *storage.Bitmap
		if n > 100 {
			live = storage.NewEmptyBitmap(n)
			for i := 0; i < n; i += 3 {
				live.Set(i)
			}
		}
		table := hashtable.Build(rel, "k", live)
		got := FromTable(table)

		want := &Filter{
			bits:  make([]uint64, table.NumBuckets()>>3),
			shift: table.Shift() + 3,
		}
		for i, k := range keys {
			if live != nil && !live.Get(i) {
				continue
			}
			want.Add(k)
		}
		if !reflect.DeepEqual(got.bits, want.bits) {
			t.Fatalf("n=%d: derived filter bits differ from direct insertion", n)
		}
		if got.n != table.Len() {
			t.Fatalf("n=%d: derived filter n=%d, table Len=%d", n, got.n, table.Len())
		}
		// No false negatives, by construction.
		for i, k := range keys {
			if live != nil && !live.Get(i) {
				continue
			}
			if !mayContain(got, k) {
				t.Fatalf("n=%d: derived filter lost key %d", n, k)
			}
		}
	}
}
