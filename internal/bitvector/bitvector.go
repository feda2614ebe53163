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

// ProbeContains is the batch filter probe: for every key whose sel
// entry is set (nil sel probes all), out[i] reports whether keys[i] may
// be present (false is definitive: the key was never added);
// unselected lanes get out[i] = false. It returns the number of keys
// probed. len(out) must equal len(keys). sel and out may share backing
// storage (in-place mask reduction): sel[i] is read before out[i] is
// written. Hashing, the word load and the tag test run in one tight
// pass over the chunk — unlike the hash table there is no dependent
// second load to pipeline, so the filter probe is a single independent
// load per key that the memory system already overlaps. The executor
// filters with Retain; the benchmark harness's kernel timings
// (benchmark/probes.go) and tests are this probe's remaining callers.
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

// Retain is the selection-vector filter probe: it keeps at the front
// of rows, in order, the rows whose key keyCol[row] may be contained,
// moves carry[i] in lock step with rows[i] (nil carry moves nothing),
// and returns how many it kept. It is branch-free: every row is
// written at the write index, which then advances by the row's hit
// bit, so a hit costs no misprediction however the keys fall. A caller
// chaining filters hands each the survivors of the previous one,
// rows[:k]. len(carry) must be at least len(rows) unless carry is nil.
func (f *Filter) Retain(keyCol storage.Column, rows, carry []int32) int {
	words, shift := f.bits, f.shift // kept in registers across the loop
	k := 0
	if carry == nil {
		for _, row := range rows {
			rows[k] = row
			k += hit(words, shift, hashtable.Hash64(keyCol[row]))
		}
		return k
	}
	carry = carry[:len(rows)]
	for i, row := range rows {
		rows[k], carry[k] = row, carry[i]
		k += hit(words, shift, hashtable.Hash64(keyCol[row]))
	}
	return k
}

// hit is whether the key hashing to h may be present, as 0 or 1, with
// no branch:
// the word's tag bit, moved to the top and down to bit 0.
func hit(words []uint64, shift uint, h uint64) int {
	b := words[hashtable.Bucket(h, shift)] & hashtable.Tag(h, shift, tagWidth)
	return int((b | -b) >> 63)
}

// Words exposes the raw bit array and WordShift the word-directory
// shift — the filter's whole probe geometry, which the projection tests
// compare word for word against a cold build's: a key hits iff
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
