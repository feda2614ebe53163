package shard

import (
	"testing"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// driverOnly builds the smallest dataset Partition accepts: a
// one-relation tree whose root holds n rows.
func driverOnly(n int) *storage.Dataset {
	rel := storage.NewRelation("R", "id")
	for i := 0; i < n; i++ {
		rel.AppendRow(int64(i))
	}
	ds := storage.NewDataset(plan.NewTree("R"))
	ds.SetRelation(plan.Root, rel, "")
	return ds
}

// requirePartitionOf asserts the ownership invariants of a partition of
// ds: every shard points at ds, every physical driver row is owned by
// exactly one shard — the one Assign names — and the shards' DriverRows
// sum to the driver's row count.
func requirePartitionOf(t *testing.T, ds *storage.Dataset, shards []Shard) {
	t.Helper()
	rows := ds.Relation(plan.Root).NumRows()
	owner := make([]int, rows)
	for i := range owner {
		owner[i] = -1
	}
	total := 0
	for k, sh := range shards {
		if sh.Parent != ds || sh.Index != k || sh.Count != len(shards) {
			t.Fatalf("shard %d mislabeled or on the wrong snapshot", k)
		}
		total += sh.DriverRows()
		if sh.Rows == nil {
			if len(shards) != 1 && rows != 0 {
				t.Fatalf("shard %d of %d has a nil mask over %d rows", k, len(shards), rows)
			}
			continue
		}
		if sh.Rows.Len() != rows {
			t.Fatalf("shard %d mask covers %d rows, driver has %d", k, sh.Rows.Len(), rows)
		}
		sh.Rows.ForEachSet(func(row int) {
			if owner[row] != -1 {
				t.Fatalf("row %d owned by shards %d and %d", row, owner[row], k)
			}
			owner[row] = k
		})
	}
	if total != rows {
		t.Fatalf("shards own %d rows, driver has %d", total, rows)
	}
	if len(shards) > 1 {
		for row, k := range owner {
			if k != Assign(row, len(shards)) {
				t.Fatalf("row %d owned by %d, Assign says %d", row, k, Assign(row, len(shards)))
			}
		}
	}
}

// FuzzPartitionAdvance drives a partition through a fuzzed stream of
// driver append/delete batches. After every commit the advanced
// partition must equal a fresh Partition of the committed snapshot mask
// for mask, own every driver row exactly once, and must not have
// written through the masks of the partition it was advanced from
// (in-flight scatters still hold those).
//
// The stream is one op per byte: 0 commits the pending batch, an odd
// byte appends a driver row, an even byte deletes a live row derived
// from the byte and its position. The tail of the stream commits too.
func FuzzPartitionAdvance(f *testing.F) {
	f.Add(uint16(0), uint8(3), []byte{1, 1, 1, 0, 2, 0})
	f.Add(uint16(100), uint8(0), []byte{1, 4, 0, 6, 8, 1})
	f.Add(uint16(300), uint8(3), []byte{2, 4, 6, 0, 1, 3, 5, 7, 0, 8, 1, 0, 0, 9})
	f.Add(uint16(64), uint8(7), []byte{1, 0, 1, 0, 1, 0, 2, 2, 2})
	f.Add(uint16(1000), uint8(15), []byte{200, 100, 50, 25, 0, 255, 254, 253})
	f.Fuzz(func(t *testing.T, rows uint16, n uint8, stream []byte) {
		nShards := int(n)%16 + 1
		cur := driverOnly(int(rows) % 2048)
		part, err := Partition(cur, nShards)
		if err != nil {
			t.Fatal(err)
		}
		requirePartitionOf(t, cur, part)

		total := cur.Relation(plan.Root).NumRows() // physical rows, pending appends included
		dead := make(map[int]bool)
		var batch *storage.Delta
		commit := func() {
			if batch == nil {
				return
			}
			v, err := batch.Commit()
			if err != nil {
				t.Fatal(err)
			}
			batch = nil
			before := make([][]uint64, len(part))
			for k, sh := range part {
				if sh.Rows != nil {
					before[k] = append([]uint64(nil), sh.Rows.Words()...)
				}
			}
			next, err := Advance(part, v.Dataset, v)
			if err != nil {
				t.Fatal(err)
			}
			for k, sh := range part {
				if sh.Rows == nil {
					continue
				}
				for i, w := range sh.Rows.Words() {
					if w != before[k][i] {
						t.Fatalf("Advance wrote through shard %d's previous mask", k)
					}
				}
			}
			fresh, err := Partition(v.Dataset, nShards)
			if err != nil {
				t.Fatal(err)
			}
			requireShardsEqual(t, next, fresh)
			requirePartitionOf(t, v.Dataset, next)
			cur, part = v.Dataset, next
		}
		for pos, b := range stream {
			switch {
			case b == 0:
				commit()
				continue
			case b&1 == 1:
				if batch == nil {
					batch = cur.Begin()
				}
				batch.Append("R", int64(total))
				total++
			case total > 0:
				row := (int(b)*7919 + pos) % total
				if dead[row] {
					continue
				}
				if batch == nil {
					batch = cur.Begin()
				}
				batch.Delete("R", row)
				dead[row] = true
			}
		}
		commit()
	})
}
