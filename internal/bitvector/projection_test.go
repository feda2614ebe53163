package bitvector

import (
	"slices"
	"sync"
	"testing"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/storage"
)

// fuzzKey spreads a byte over a small signed key space, so fuzzed
// columns are full of duplicates, negatives and near misses.
func fuzzKey(b byte) int64 { return int64(int8(b)) >> 1 }

// FuzzFilterProjection holds the filter a table projects to the filter
// of a cold build, through a fuzzed mutation chain. build is the key
// column the table is first built over, one key per byte. ops is the
// chain: an op byte's low two bits pick append (of the key in its upper
// bits), delete (of a committed row its upper bits pick), commit, or
// commit-and-compact; every commit reaches the table through
// hashtable.ApplyDelta, as the serving layer's repair does. The chain
// keeps the versioned shape itself rather than going through a
// storage.Dataset, so it also reaches shapes the storage compaction
// policy never leaves behind (an append region larger than its base,
// nothing but tombstones). After every commit the repaired table's
// filter must have the words and shift of a cold BuildVersioned's, no
// live key may be a false negative, and the batch probe over the probe
// column under the fuzzed selection must agree with per-key MayContain.
func FuzzFilterProjection(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4}, []byte{0x04, 0x08, 2, 0x0c, 0x05, 2, 3, 0x10, 2}, []byte{1, 2, 3, 9, 0x10}, []byte{0xb5})
	// Empty base: every row lives in the append region.
	f.Add([]byte{}, []byte{0x20, 0x24, 0x20, 2, 0x05, 2}, []byte{0x20, 0x24, 0x28}, []byte{})
	// All rows deleted, base and append region alike.
	f.Add([]byte{4, 4, 6}, []byte{0x10, 2, 1, 5, 9, 13, 2}, []byte{4, 6, 8, 0x10}, []byte{0x0f})
	f.Add([]byte{}, []byte{}, []byte{1, 2, 3}, []byte{})

	f.Fuzz(func(t *testing.T, build, ops, probe, sel []byte) {
		if len(build) > 1<<10 || len(probe) > 1<<10 || len(ops) > 1<<8 {
			t.Skip("every commit rebuilds the table cold: keep one input cheap")
		}
		keys := make([]int64, len(probe))
		for i, b := range probe {
			keys[i] = fuzzKey(b)
		}
		var mask []bool
		if len(sel) > 0 {
			mask = make([]bool, len(keys))
			for i := range mask {
				mask[i] = sel[i/8%len(sel)]>>(i%8)&1 != 0
			}
		}

		// The versioned shape: rows [0, baseRows) masked by baseLive are
		// the packed part, dead[r] marks the rows deleted so far.
		var col []int64
		for _, b := range build {
			col = append(col, fuzzKey(b))
		}
		baseRows, dead := len(col), map[int]bool{}
		var baseLive *storage.Bitmap
		liveMask := func() *storage.Bitmap {
			m := storage.NewBitmap(len(col))
			for r := range dead {
				m.Clear(r)
			}
			return m
		}
		relation := func() *storage.Relation {
			rel := storage.NewRelation("R", "k")
			for _, k := range col {
				rel.AppendRow(k)
			}
			return rel
		}
		var tbl *hashtable.Table
		check := func() {
			t.Helper()
			cold := hashtable.BuildVersioned(relation(), "k", baseRows, baseLive, liveMask(), 1, nil)
			if tbl == nil {
				tbl = cold
			}
			got, want := FromTable(tbl), FromTable(cold)
			if !slices.Equal(got.Words(), want.Words()) || got.WordShift() != want.WordShift() {
				t.Fatalf("repaired table projects words %x shift %d, cold build %x shift %d",
					got.Words(), got.WordShift(), want.Words(), want.WordShift())
			}
			for r, k := range col {
				if !dead[r] && !got.MayContain(k) {
					t.Fatalf("live key %d (row %d) is a false negative", k, r)
				}
			}
			out := make([]bool, len(keys))
			probed := got.ProbeContains(keys, mask, out)
			selected := 0
			for i, k := range keys {
				lane := mask == nil || mask[i]
				if lane {
					selected++
				}
				if out[i] != (lane && got.MayContain(k)) {
					t.Fatalf("lane %d key %d: ProbeContains %v, selected %v, MayContain %v", i, k, out[i], lane, got.MayContain(k))
				}
			}
			if probed != selected {
				t.Fatalf("ProbeContains probed %d lanes, %d selected", probed, selected)
			}
		}
		check()

		committed := len(col) // rows the table has seen
		var deleted []int     // rows deleted since the last commit
		commit := func(compact bool) {
			if compact {
				baseRows, baseLive = len(col), liveMask()
			}
			tbl = tbl.ApplyDelta(relation(), "k", hashtable.DeltaSpec{
				BaseRows:     baseRows,
				BaseLive:     baseLive,
				Live:         liveMask(),
				AppendedFrom: committed,
				Deleted:      deleted,
				Compacted:    compact,
			}, 1, nil)
			committed, deleted = len(col), nil
			check()
		}
		for j, op := range ops {
			switch op & 3 {
			case 0:
				col = append(col, fuzzKey(op>>2))
			case 1:
				// A commit deletes only rows an earlier one has shown the
				// table.
				if row := (int(op>>2) + j) % max(committed, 1); committed > 0 && !dead[row] {
					dead[row] = true
					deleted = append(deleted, row)
				}
			default:
				commit(op&3 == 3)
			}
		}
		commit(false)
	})
}

// TestFromTableConcurrentFirstUse: the first FromTable calls on one
// shared table — a cached table's first BVP queries, arriving together —
// must all get the same backing words, fully derived. Run under -race.
func TestFromTableConcurrentFirstUse(t *testing.T) {
	rel := storage.NewRelation("R", "k")
	for i := 0; i < 20000; i++ {
		rel.AppendRow(int64(i * 7 % 4099))
	}
	want := FromTable(hashtable.Build(rel, "k", nil)).Words()
	for round := 0; round < 10; round++ {
		tbl := hashtable.Build(rel, "k", nil)
		const n = 8
		got := make([][]uint64, n)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < n; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				got[g] = FromTable(tbl).Words()
			}(g)
		}
		close(start)
		wg.Wait()
		for g := range got {
			if &got[g][0] != &got[0][0] {
				t.Fatalf("round %d: goroutine %d got its own words, not the table's", round, g)
			}
		}
		if !slices.Equal(got[0], want) {
			t.Fatalf("round %d: concurrently derived words differ from a quiet derivation", round)
		}
	}
}
