// Package bitvector implements the hash bitvector filters used for
// sideways information passing (Section 2.2 and 4.4): a join operator
// registers the hashes of its build-side keys in a bit array; probe-
// side tuples whose key hash is absent are guaranteed to have no match
// and can be pruned before reaching the hash join. False positives are
// possible (two keys sharing a bit) and harmless: the tuple is pruned
// later by the join itself.
//
// The filter shares both the key hash (hashtable.Hash64) and the tag
// derivation of the tagged hash table: a key's filter word is
// hashtable.Bucket(h, shift) — the top hash bits, exactly like a
// directory slot — and its bit within the word is hashtable.Tag(h,
// shift, 6), the same "bits immediately below the index" rule that
// picks the table's 16-bit slot tags (there at width 4). A filter
// false positive is therefore the same event as a tag false positive —
// a collision in the shared upper hash bits — so BVP pruning errors
// behave like hash collisions, as the paper's cost model assumes.
package bitvector

import (
	"math/bits"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/storage"
)

// tagWidth is the filter's tag width: 6 bits select the bit position
// within a 64-bit filter word.
const tagWidth = 6

// Filter is a fixed-size hash bitvector over a set of int64 keys.
type Filter struct {
	bits []uint64
	// shift addresses the word directory: a key's word is
	// hashtable.Bucket(h, shift), its bit hashtable.Tag(h, shift, 6).
	shift uint
	n     int // number of keys inserted (not deduplicated)
}

// defaultDensity is the bits-per-key density New uses when given none.
// At 8 bits per key the single-hash false-positive rate is about 1/8 in
// the worst case of all-distinct keys; the paper's epsilon is similarly
// a small constant estimated by micro-benchmarking.
const defaultDensity = 8

// New creates a filter sized for n keys at the given bits-per-key
// density (0 selects defaultDensity).
func New(n, bitsPerKey int) *Filter {
	if bitsPerKey <= 0 {
		bitsPerKey = defaultDensity
	}
	bitCount := 64
	for bitCount < n*bitsPerKey {
		bitCount <<= 1
	}
	words := bitCount / 64
	return &Filter{
		bits:  make([]uint64, words),
		shift: uint(64 - bits.TrailingZeros(uint(words))),
	}
}

// BuildFromColumn creates a standalone filter containing every key of
// rel's column whose live bit is set (nil live inserts all rows), by
// hashing each key. With a sparse packed mask only set rows are
// visited. The engine never calls it — its filters are projections of
// the hash tables it builds anyway (FromTable); this is the by-hand
// construction the projection is tested and benchmarked against.
func BuildFromColumn(rel *storage.Relation, column string, live *storage.Bitmap, bitsPerKey int) *Filter {
	col := rel.Column(column)
	f := New(len(col), bitsPerKey)
	if live == nil {
		for _, key := range col {
			f.Add(key)
		}
		return f
	}
	for wi, w := range live.Words() {
		base := wi << 6
		for ; w != 0; w &= w - 1 {
			f.Add(col[base+bits.TrailingZeros64(w)])
		}
	}
	return f
}

// FromTable returns the filter over a tagged hash table's keys: a view
// of the table's own projection (hashtable.Table.FilterWords), which
// the table derives once — from its directory's bucket and tag bits,
// with no rehash and no relation scan — and keeps. At geometry 8 bits
// per directory slot (8-16 bits per key at the table's load factor
// <= 1; half that for very large tables at the relaxed load <= 2) the
// words are bit-identical to inserting every retained key into a filter
// of the same geometry, so phase 1 of the BVP strategies gets its
// bitvectors for free from the tables it builds anyway, and this is the
// only way the engine makes a filter. FilterWords documents what a
// versioned table (tombstones, append region) projects.
func FromTable(t *hashtable.Table) *Filter {
	return &Filter{bits: t.FilterWords(), shift: t.Shift() + 3, n: t.Len()}
}

// Add registers a key.
func (f *Filter) Add(key int64) {
	h := hashtable.Hash64(key)
	f.bits[hashtable.Bucket(h, f.shift)] |= hashtable.Tag(h, f.shift, tagWidth)
	f.n++
}

// MayContain reports whether key might be present. A false result is
// definitive: the key was never added.
func (f *Filter) MayContain(key int64) bool {
	h := hashtable.Hash64(key)
	return f.bits[hashtable.Bucket(h, f.shift)]&hashtable.Tag(h, f.shift, tagWidth) != 0
}

// ProbeContains is the batch filter probe: for every key whose sel
// entry is set (nil sel probes all), out[i] reports MayContain(keys[i]);
// unselected lanes get out[i] = false. It returns the number of keys
// probed. len(out) must equal len(keys). sel and out may share backing
// storage (in-place mask reduction): sel[i] is read before out[i] is
// written. Hashing, the word load and the tag test run in one tight
// pass over the chunk — unlike the hash table there is no dependent
// second load to pipeline, so the filter probe is a single independent
// load per key that the memory system already overlaps.
func (f *Filter) ProbeContains(keys []int64, sel []bool, out []bool) int {
	probed := 0
	for i, key := range keys {
		if sel != nil && !sel[i] {
			out[i] = false
			continue
		}
		probed++
		h := hashtable.Hash64(key)
		out[i] = f.bits[hashtable.Bucket(h, f.shift)]&hashtable.Tag(h, f.shift, tagWidth) != 0
	}
	return probed
}

// Words exposes the raw bit array and WordShift the word-directory
// shift — the filter's whole probe geometry, for callers that fuse the
// filter test into another key-hashing pass (the executor's fused
// filter+table probe pipelines): a key hits iff
// Words()[h>>WordShift()] & hashtable.Tag(h, WordShift(), 6) != 0
// for h = hashtable.Hash64(key). The returned slice is the filter's
// own storage; callers must not modify it.
func (f *Filter) Words() []uint64 { return f.bits }

// WordShift returns the shift addressing the filter's word directory.
func (f *Filter) WordShift() uint { return f.shift }

// MemoryBytes returns the heap footprint of the filter's bit array —
// the quantity the serving layer's artifact cache charges against its
// byte budget. The array is allocated at exactly this size.
func (f *Filter) MemoryBytes() int64 { return int64(len(f.bits)) * 8 }
