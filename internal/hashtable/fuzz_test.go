package hashtable

import (
	"slices"
	"testing"

	"m2mjoin/internal/storage"
)

// fuzzKey spreads a byte over a small signed key space, so fuzzed
// columns are full of duplicates, negatives and near misses.
func fuzzKey(b byte) int64 { return int64(int8(b)) >> 1 }

// FuzzProbeKernel holds every entry point of the probe kernel to a
// naive model. build is the key column the table is first built over,
// one key per byte. ops is a mutation chain: an op byte's low two bits
// pick append (of the key in its upper bits), delete (of a row its
// upper bits and position pick), commit, or commit-and-compact; every
// commit reaches the table through ApplyDelta. The chain keeps the
// versioned shape — column, base marker, live-at-compaction mask, live
// mask — itself rather than going through a storage.Dataset, so it also
// reaches the shapes the storage compaction policy never leaves behind
// (an all-tombstone table, an append region larger than its base).
// probe is the probe key column, sel a bit-per-lane selection mask
// (empty: nil selection), and fused runs the staged pipeline with the
// table's own directory filter fused in front. After every commit the
// repaired table must equal a cold BuildVersioned of the same shape by
// Checksum, and both must answer like the live rows listed in ascending
// order.
func FuzzProbeKernel(f *testing.F) {
	seq := func(n int, mul byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i) * mul
		}
		return b
	}
	// Lane-count boundaries of the 64-row mask word and the 256-lane
	// block, over a table with tombstones in both regions.
	for _, n := range []int{63, 64, 65, 255, 256, 257} {
		f.Add(seq(n, 3), []byte{0x14, 0x24, 0x05, 2, 0x31, 0x81, 0x18}, seq(n, 5), []byte{0xb7, 0x5a}, n%2 == 0)
		f.Add(seq(n, 7), []byte{}, seq(n, 1), []byte{}, n%2 == 1)
	}
	// All rows deleted, base and append region alike: nothing but tombstones.
	f.Add([]byte{4, 4, 6}, []byte{0x10, 2, 1, 1, 1, 1}, []byte{4, 6, 8, 0x10}, []byte{}, false)
	// Append-only chain, then a compaction.
	f.Add([]byte{1, 2, 3, 4}, []byte{0x04, 0x08, 2, 0x0c, 0x04, 2, 3}, seq(70, 2), []byte{0xff, 0x0f}, true)
	// Empty base: every row lives in the append region.
	f.Add([]byte{}, []byte{0x20, 0x24, 0x20, 2, 0x05}, []byte{0x20, 0x24, 0x28}, []byte{0x05}, true)
	f.Add([]byte{}, []byte{}, []byte{1, 2, 3}, []byte{}, false)

	f.Fuzz(func(t *testing.T, build, ops, probe, sel []byte, fused bool) {
		if len(build) > 1<<10 || len(probe) > 1<<10 || len(ops) > 1<<8 {
			t.Skip("every commit re-checks the whole table: keep one input cheap")
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
		var tbl *Table
		check := func() {
			t.Helper()
			model := make(map[int64][]int32)
			for r, k := range col {
				if !dead[r] {
					model[k] = append(model[k], int32(r))
				}
			}
			cold := BuildVersioned(relation(), "k", baseRows, baseLive, liveMask(), 1, nil)
			if tbl == nil {
				tbl = cold
			}
			if tbl.Checksum() != cold.Checksum() {
				t.Fatalf("repaired table diverged from the cold build of the same shape")
			}
			want := checkKernel(t, cold, model, keys, mask, fused)
			if got := checkKernel(t, tbl, model, keys, mask, fused); !equalResults(got, want) {
				t.Fatalf("repaired table answers %+v, cold build %+v", got, want)
			}
		}
		check()

		committed := len(col) // rows the table has seen
		var deleted []int     // rows deleted since the last commit
		commit := func(compact bool) {
			if compact {
				baseRows, baseLive = len(col), liveMask()
			}
			tbl = tbl.ApplyDelta(relation(), "k", DeltaSpec{
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
				// table, counted from the front or (high bit) from the back.
				if committed > 0 {
					row := (int(op>>2) + j) % committed
					if op >= 0x80 {
						row = committed - 1 - int(op>>2&31)%committed
					}
					if !dead[row] {
						dead[row] = true
						deleted = append(deleted, row)
					}
				}
			default:
				commit(op&3 == 3)
			}
		}
		commit(false)
	})
}

// equalResults compares two batch results on every field.
func equalResults(a, b ProbeResult) bool {
	return a.Probed == b.Probed && a.TagHits == b.TagHits && a.TagMisses == b.TagMisses &&
		slices.Equal(a.Counts, b.Counts) && slices.Equal(a.Offsets, b.Offsets) && slices.Equal(a.Rows, b.Rows)
}

// checkKernel probes tbl through every entry point — ProbeBatchInto,
// the staged pipeline (fused with the table's own directory filter when
// fused is set), ProbeCounts, ProbeContains and ReduceLive — and fails
// unless each agrees with model (key → live rows, ascending) on rows,
// counts and membership, probes exactly the selected lanes, and splits
// them into TagHits + TagMisses like the others. Returns the batch
// result.
func checkKernel(t *testing.T, tbl *Table, model map[int64][]int32, keys []int64, sel []bool, fused bool) ProbeResult {
	t.Helper()
	selected := 0
	for i := range keys {
		if sel == nil || sel[i] {
			selected++
		}
	}
	// against holds a result to the model over the lanes in pass.
	against := func(name string, res *ProbeResult, pass []bool, probed int) {
		t.Helper()
		if res.Probed != probed || res.TagHits+res.TagMisses != probed {
			t.Fatalf("%s: Probed %d TagHits %d TagMisses %d over %d probed lanes",
				name, res.Probed, res.TagHits, res.TagMisses, probed)
		}
		if len(res.Counts) != len(keys) || len(res.Offsets) != len(keys)+1 || int(res.Offsets[len(keys)]) != len(res.Rows) {
			t.Fatalf("%s: %d counts, %d offsets, %d rows for %d keys", name, len(res.Counts), len(res.Offsets), len(res.Rows), len(keys))
		}
		for i, k := range keys {
			var want []int32
			if pass == nil || pass[i] {
				want = model[k]
			}
			got := res.Rows[res.Offsets[i]:res.Offsets[i+1]]
			if !slices.Equal(got, want) || int(res.Counts[i]) != len(want) {
				t.Fatalf("%s lane %d key %d: rows %v count %d, model %v", name, i, k, got, res.Counts[i], want)
			}
		}
	}

	var batch ProbeResult
	tbl.ProbeBatchInto(keys, sel, &batch)
	against("ProbeBatchInto", &batch, sel, selected)
	stats := ProbeStats{batch.Probed, batch.TagHits, batch.TagMisses}

	var staged ProbeResult
	var p ProbePipeline
	p.Begin(tbl, keys, sel, &staged)
	drivePipeline(&p)
	if !equalResults(staged, batch) || p.FilterProbed() != 0 || p.Filtered() != 0 {
		t.Fatalf("staged pipeline %+v, ProbeBatchInto %+v", staged, batch)
	}

	if fused {
		fbits, fshift := tbl.FilterWords(), tbl.Shift()+3
		wantPass := make([]bool, len(keys))
		passing := 0
		for i, k := range keys {
			h := Hash64(k)
			if (sel == nil || sel[i]) && fbits[h>>fshift]&Tag(h, fshift, 6) != 0 {
				wantPass[i] = true
				passing++
			}
		}
		pass := make([]bool, len(keys))
		p.BeginFused(tbl, keys, sel, &staged, fbits, fshift, pass)
		drivePipeline(&p)
		if !slices.Equal(pass, wantPass) || p.FilterProbed() != selected || p.Filtered() != selected-passing {
			t.Fatalf("fused filter: probed %d filtered %d pass %v, want %d %d %v",
				p.FilterProbed(), p.Filtered(), pass, selected, selected-passing, wantPass)
		}
		against("fused pipeline", &staged, wantPass, passing)
		var unfused ProbeResult
		tbl.ProbeBatchInto(keys, wantPass, &unfused)
		if !equalResults(staged, unfused) {
			t.Fatalf("fused pipeline %+v, filter-then-probe %+v", staged, unfused)
		}
	}

	counts := make([]int32, len(keys))
	if st := tbl.ProbeCounts(keys, sel, counts); st != stats || !slices.Equal(counts, batch.Counts) {
		t.Fatalf("ProbeCounts %v %+v, ProbeBatchInto %v %+v", counts, st, batch.Counts, stats)
	}
	found := make([]bool, len(keys))
	st := tbl.ProbeContains(keys, sel, found)
	live := storage.NewEmptyBitmap(len(keys))
	for i := range keys {
		if found[i] != (batch.Counts[i] > 0) {
			t.Fatalf("ProbeContains lane %d key %d: %v, count %d", i, keys[i], found[i], batch.Counts[i])
		}
		if sel == nil || sel[i] {
			live.Set(i)
		}
	}
	if st != stats {
		t.Fatalf("ProbeContains stats %+v, ProbeBatchInto %+v", st, stats)
	}
	if st := tbl.ReduceLive(keys, live, 0, len(keys)); st != stats {
		t.Fatalf("ReduceLive stats %+v, ProbeBatchInto %+v", st, stats)
	}
	for i := range keys {
		if live.Get(i) != found[i] {
			t.Fatalf("ReduceLive row %d key %d: kept %v, contains %v", i, keys[i], live.Get(i), found[i])
		}
	}
	return batch
}
