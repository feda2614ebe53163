package exec

import (
	"math/bits"
	"sort"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// Reference evaluates the dataset's join query with a simple
// tuple-at-a-time nested recursion — no vectorization, no pruning, no
// factorization. It returns the output cardinality and the same
// order-independent checksum the engine computes, providing an
// independent oracle for correctness tests. Intended for small inputs.
func Reference(ds *storage.Dataset) (count int64, checksum uint64) {
	return ReferenceResiduals(ds, nil)
}

// ReferenceResiduals is Reference with residual predicates applied,
// the oracle for cyclic queries.
func ReferenceResiduals(ds *storage.Dataset, residuals []Residual) (count int64, checksum uint64) {
	return ReferenceOpts(ds, residuals, nil)
}

// ReferenceOpts is the full oracle: residual predicates for cyclic
// queries plus pushed-down selections. Each non-root relation is
// indexed by a ChainedTable — the seed's chained hash-table layout —
// so every reference comparison doubles as a differential test of the
// engine's tagged unchained table against the chained build.
func ReferenceOpts(ds *storage.Dataset, residuals []Residual, selections []Selection) (count int64, checksum uint64) {
	rc := newResidualChecker(ds, residuals)
	masks := effectiveMasks(ds, selectionMasks(ds, selections))
	t := ds.Tree
	// Index child rows by key for each non-root relation.
	indexes := make(map[plan.NodeID]*ChainedTable, t.Len()-1)
	for _, c := range t.NonRoot() {
		indexes[c] = BuildChained(ds.Relation(c), ds.KeyColumn(c), maskAt(masks, c))
	}

	// Canonical tuple layout: ascending NodeID.
	ids := append([]plan.NodeID{plan.Root}, t.NonRoot()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	slot := make(map[plan.NodeID]int, len(ids))
	for i, id := range ids {
		slot[id] = i
	}
	tuple := make([]int32, len(ids))

	var expand func(order []plan.NodeID, k int)
	order := t.TopDown() // parents before children, driver first
	// One reusable match buffer per recursion depth: each level's
	// matches stay live while deeper levels expand, but a level never
	// outlives its own loop, so steady-state expansion allocates
	// nothing.
	scratch := make([][]int32, len(order))
	expand = func(order []plan.NodeID, k int) {
		if k == len(order) {
			if !rc.ok(tuple) {
				return
			}
			count++
			checksum += checksumCanonical(tuple)
			return
		}
		id := order[k]
		parentRow := tuple[slot[t.Parent(id)]]
		key := ds.Relation(t.Parent(id)).Column(ds.KeyColumn(id))[parentRow]
		scratch[k] = indexes[id].AppendMatches(scratch[k][:0], key)
		for _, row := range scratch[k] {
			tuple[slot[id]] = row
			expand(order, k+1)
		}
	}

	driverRows := ds.Relation(plan.Root).NumRows()
	driverMask := maskAt(masks, plan.Root)
	for i := 0; i < driverRows; i++ {
		if driverMask != nil && !driverMask.Get(i) {
			continue
		}
		tuple[slot[plan.Root]] = int32(i)
		expand(order[1:], 0)
	}
	return count, checksum
}

// The flat-output checksum: a tuple in canonical (ascending NodeID)
// layout hashes, FNV-style, to
//
//	h₀ = checksumOffset, hᵢ₊₁ = hᵢ·checksumPrime + Hash64(i<<32 | rows[i])
//
// and a result's checksum is the sum of its tuples' hashes, all mod 2⁶⁴.
// Unrolled, a tuple of n relations hashes to
//
//	checksumOffset·Pⁿ + Σᵢ Pⁿ⁻¹⁻ⁱ·Hash64(i<<32 | rows[i])   (P = checksumPrime)
//
// which is linear in per-relation terms: checksumTerms returns the
// constant and the powers, so a factorized expansion can hash each
// factor row once and sum the terms instead of hashing every column of
// every tuple.
const (
	checksumOffset uint64 = 1469598103934665603
	checksumPrime  uint64 = 1099511628211
)

// checksumCanonical hashes one tuple in canonical layout.
func checksumCanonical(rows []int32) uint64 {
	h := checksumOffset
	for i, row := range rows {
		h = h*checksumPrime + hashtable.Hash64(int64(i)<<32|int64(row))
	}
	return h
}

// checksumTerms decomposes checksumCanonical over tuples of n
// relations: checksumCanonical(rows) = base + Σᵢ pow[i]·Hash64(i<<32 |
// rows[i]), with base = checksumOffset·Pⁿ and pow[i] = Pⁿ⁻¹⁻ⁱ.
func checksumTerms(n int) (base uint64, pow []uint64) {
	pow = make([]uint64, n)
	p := uint64(1)
	for i := n - 1; i >= 0; i-- {
		pow[i] = p
		p *= checksumPrime
	}
	return checksumOffset * p, pow
}

// ChainedTable is the seed's chained hash-table layout — bucket heads
// plus per-entry next links, probes chasing the chain through the
// pointer table — retained verbatim as the differential-test oracle
// for the tagged unchained hashtable.Table. It shares hashtable.Hash64
// and keeps the seed's load-factor-<=-0.5 sizing (the tagged table now
// sizes denser); the bucket geometry is irrelevant to the oracle —
// both layouts index identical key sets and must answer every probe
// identically.
type ChainedTable struct {
	keys    []int64 // build key per retained row (insertion order)
	rows    []int32 // original relation row index per retained row
	next    []int32 // chain link within the pointer table
	buckets []int32 // hash-map: bucket -> head index into keys/rows/next
	shift   uint    // 64 - log2(len(buckets))
}

const chainedNoEntry = int32(-1)

// BuildChained constructs a chained table over rel's key column,
// retaining only rows whose live bit is set (nil retains all) — the
// seed's sequential single-pass build.
func BuildChained(rel *storage.Relation, keyColumn string, live *storage.Bitmap) *ChainedTable {
	keyCol := rel.Column(keyColumn)
	count := len(keyCol)
	if live != nil {
		count = live.Count()
	}
	size := 16
	for size < 2*count {
		size <<= 1
	}
	t := &ChainedTable{
		keys:    make([]int64, 0, count),
		rows:    make([]int32, 0, count),
		next:    make([]int32, 0, count),
		buckets: make([]int32, size),
		shift:   uint(64 - bits.TrailingZeros(uint(size))),
	}
	for i := range t.buckets {
		t.buckets[i] = chainedNoEntry
	}
	for row, key := range keyCol {
		if live != nil && !live.Get(row) {
			continue
		}
		b := hashtable.Hash64(key) >> t.shift
		idx := int32(len(t.keys))
		t.keys = append(t.keys, key)
		t.rows = append(t.rows, int32(row))
		t.next = append(t.next, t.buckets[b])
		t.buckets[b] = idx
	}
	return t
}

// Len returns the number of retained rows.
func (t *ChainedTable) Len() int { return len(t.keys) }

// Contains reports whether key has at least one match (chain walk).
func (t *ChainedTable) Contains(key int64) bool {
	b := hashtable.Hash64(key) >> t.shift
	for e := t.buckets[b]; e != chainedNoEntry; e = t.next[e] {
		if t.keys[e] == key {
			return true
		}
	}
	return false
}

// CountMatches returns the number of build rows matching key.
func (t *ChainedTable) CountMatches(key int64) int32 {
	var n int32
	b := hashtable.Hash64(key) >> t.shift
	for e := t.buckets[b]; e != chainedNoEntry; e = t.next[e] {
		if t.keys[e] == key {
			n++
		}
	}
	return n
}

// AppendMatches appends the build-row indices matching key to dst, in
// chain order (descending retained row, the reverse of insertion).
func (t *ChainedTable) AppendMatches(dst []int32, key int64) []int32 {
	b := hashtable.Hash64(key) >> t.shift
	for e := t.buckets[b]; e != chainedNoEntry; e = t.next[e] {
		if t.keys[e] == key {
			dst = append(dst, t.rows[e])
		}
	}
	return dst
}
