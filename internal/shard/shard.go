// Package shard implements deterministic hash partitioning of a
// dataset's driver rows for partition-parallel and distributed
// execution.
//
// A shard is a set of driver rows of its parent snapshot — nothing
// more. The paper's executor builds its hash tables, filters and
// semi-join reductions on the non-root relations once and streams the
// driver through them, and every probe counter is additive over driver
// rows, so partitioning a query is choosing which driver rows a pass
// scans: shard k owns every driver row whose deterministic hash
// assigns it to k, carried as one bitmap over the parent's row ids.
// The executor takes that bitmap as a driver-row restriction
// (exec.Options.DriverRows) and ANDs it into the root mask exactly
// where root selections land. A shard pass therefore runs against the
// parent snapshot itself: it shares the parent's build-side artifacts
// under the parent's own cache key, honors the parent's liveness, and
// emits tuples — and hence its order-independent checksum — in the
// parent's row coordinates. Each driver row is owned by exactly one
// shard, so the scatter-gather merge (exec.MergeShardStats) is
// bit-identical to unsharded execution.
//
// Assignment is a pure function of (row index, shard count) — see
// Assign — so independent processes that hold the same dataset agree
// on the partition without exchanging data. That property is what lets
// a serving frontend scatter shard requests to backend processes that
// derive the same row sets on demand.
package shard

import (
	"fmt"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// MaxShards bounds the shard count accepted by Partition: a sanity
// limit far above any useful fan-out (shards beyond the driver
// cardinality are empty), protecting the serving tier from absurd
// remote requests.
const MaxShards = 1024

// Shard is one partition of a snapshot's driver rows.
type Shard struct {
	// Index is this shard's position in [0, Count).
	Index int
	// Count is the total number of shards in the partition.
	Count int
	// Parent is the snapshot the shard's rows belong to; a shard pass
	// executes against it directly.
	Parent *storage.Dataset
	// Rows marks the driver rows the shard owns, one bit per physical
	// driver row of Parent (dead rows included — liveness is the
	// parent's business). Nil means every row: the trivial 1-shard
	// partition.
	Rows *storage.Bitmap
}

// DriverRows returns the number of driver rows owned by the shard.
func (s Shard) DriverRows() int {
	if s.Rows == nil {
		return s.Parent.Relation(plan.Root).NumRows()
	}
	return s.Rows.Count()
}

// Assign returns the shard owning driver row `row` in an n-way
// partition: a splitmix64 draw over the row index, reduced mod n. It
// is a pure function — every process computes the same assignment —
// and the mixer spreads consecutive rows across shards, so hot
// contiguous ranges do not land on one shard.
func Assign(row, n int) int {
	if n <= 1 {
		return 0
	}
	x := uint64(row) + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(n))
}

// Partition splits ds's driver rows n ways. n == 1 returns the single
// trivial shard (nil Rows). Shards may be empty when n exceeds the
// driver cardinality; empty shards execute trivially and contribute
// zero to every merged counter.
func Partition(ds *storage.Dataset, n int) ([]Shard, error) {
	if ds == nil {
		return nil, fmt.Errorf("shard: nil dataset")
	}
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: shard count %d out of [1, %d]", n, MaxShards)
	}
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("shard: invalid dataset: %w", err)
	}
	return extend(make([]Shard, n), ds, 0), nil
}

// Advance derives the partition of the parent's next snapshot from the
// partition of its predecessor: the commit's appended driver rows are
// routed through Assign onto their owning shard's mask (copy-on-write,
// so the previous partition keeps serving its snapshot). Driver deletes
// need nothing — the parent's liveness already has them — and a commit
// that leaves the driver alone shares the masks by reference. The
// result is mask-for-mask identical to Partition(parent, n).
func Advance(prev []Shard, parent *storage.Dataset, v storage.Version) ([]Shard, error) {
	if len(prev) == 0 {
		return nil, fmt.Errorf("shard: Advance of empty partition")
	}
	if parent != v.Dataset {
		return nil, fmt.Errorf("shard: Advance parent is not the committed snapshot")
	}
	return extend(prev, parent, prev[0].Parent.Relation(plan.Root).NumRows()), nil
}

// extend returns prev re-pointed at parent with every driver row in
// [from, parent's driver rows) assigned to its owner. prev's masks are
// never written: a mask that gains rows is copied first, one that does
// not is shared.
func extend(prev []Shard, parent *storage.Dataset, from int) []Shard {
	n := len(prev)
	rows := parent.Relation(plan.Root).NumRows()
	shards := make([]Shard, n)
	for s := range shards {
		shards[s] = Shard{Index: s, Count: n, Parent: parent, Rows: prev[s].Rows}
	}
	if n == 1 || rows == from {
		return shards
	}
	for s := range shards {
		grown := storage.NewEmptyBitmap(rows)
		if from > 0 {
			copy(grown.Words(), prev[s].Rows.Words())
		}
		shards[s].Rows = grown
	}
	for row := from; row < rows; row++ {
		shards[Assign(row, n)].Rows.Set(row)
	}
	return shards
}
