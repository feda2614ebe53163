// Package hashtable implements the cache-conscious tagged hash table
// of the execution engine (Section 4.2-4.3, Fig. 7): a directory of
// packed uint64 head words, each holding a 16-bit Bloom tag plus a link
// to the first entry of the bucket's chain, over entries chained in
// ascending row order by one next array. A non-matching probe is
// answered by the directory word alone — the tag bit of the probe hash
// is absent — with no second load. The table copies no keys: it reads
// them from the relation's own key column. Every probe is the
// two-stage kernel of pipeline.go: stage 1 hashes a block of keys,
// fetches their head words, filters on tags and compares each
// surviving chain's first key (a load that doubles as a software
// prefetch of the entry); stage 2 walks the chains. Probing reports the
// per-key match count — the quantity the factorized representation
// stores in its count vector-columns.
package hashtable

import (
	"math/bits"
	"sync"

	"m2mjoin/internal/par"
	"m2mjoin/internal/storage"
)

// Hash64 is the key hash used by the hash table and by the bitvector
// filters: a Fibonacci/multiplicative mix with strong avalanche
// (splitmix64 finalizer). Both structures share it so that bitvector
// false positives behave like hash collisions, as in the paper.
func Hash64(x int64) uint64 {
	z := uint64(x) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Bucket returns the directory slot of hash h for a directory of
// 1<<(64-shift) slots: the top hash bits. The bitvector filters use
// the same derivation for their word index, so a filter false positive
// and a tag false positive are the same event — a hash collision in
// the shared upper bits.
func Bucket(h uint64, shift uint) uint64 { return h >> shift }

// Tag returns the one-hot Bloom-tag contribution of hash h for a
// directory addressed by Bucket(h, shift): a single bit among 1<<width,
// selected by the width hash bits immediately below the bucket index.
// Those bits are independent of the bucket index by construction, so
// keys colliding on the bucket still split across tag bits. The table
// uses width 4 (16-bit slot tags); the bitvector filters use width 6
// (bit position within a 64-bit filter word) — the same derivation at
// a different width, which is what keeps BVP false positives behaving
// like tag collisions.
func Tag(h uint64, shift, width uint) uint64 { return 1 << tagIndex(h, shift, width) }

// tagIndex is the position of Tag's bit: the width hash bits below the
// bucket index.
func tagIndex(h uint64, shift, width uint) uint64 { return h >> (shift - width) & (1<<width - 1) }

const (
	// tagWidth selects 16-bit slot tags (1 << tagWidth tag bits).
	tagWidth = 4
	// linkShift positions the chain link above the tag in a head word:
	// head = link<<linkShift | tag.
	linkShift = 1 << tagWidth
	tagMask   = 1<<linkShift - 1
)

// ProbeStats counts the outcome of a batch probe: how many keys were
// probed, and how the tag filter split them. TagMisses are probes
// answered by the directory word alone (the key's tag bit is absent —
// definitely no match, no key load); TagHits proceed to the chain
// walk and may still find nothing (a tag false positive, which
// behaves exactly like a hash collision).
type ProbeStats struct {
	Probed, TagHits, TagMisses int
}

// Add accumulates o into s.
func (s *ProbeStats) Add(o ProbeStats) {
	s.Probed += o.Probed
	s.TagHits += o.TagHits
	s.TagMisses += o.TagMisses
}

// Table is a read-only tagged hash table over one key column of a
// build relation. Its entries are the retained rows in ascending row
// order, and each bucket's entries form one chain — from the bucket's
// head word in dir through next — that walks them in ascending order.
type Table struct {
	// keys is the relation's key column itself, not a copy, starting at
	// row base: entry e's key is keys[rows[e]] under a row map, else
	// keys[e]. Storage columns are copy-on-write — a commit appends
	// past a column's length and never rewrites a row below it — so
	// the rows a table reads never change after its build.
	keys []int64
	// rows maps entry to relation row, ascending, for a build under a
	// sparse mask; nil otherwise, and entry e is row base+e. Under a
	// dense mask the dead rows' entries exist but are in no chain.
	rows []int32
	base int32
	// next chains the entries: next[e] links to the entry after e in
	// its bucket's chain. A link is entry+1, and 0 ends the chain.
	next []int32
	// entries counts the entries in chains: the retained rows.
	entries int
	// dir is the packed directory, one head word per bucket:
	// link<<linkShift | tag16, the link to the chain's first entry and
	// the OR of Tag(h) over the bucket's keys; 0 for an empty bucket.
	dir   []uint64
	shift uint // 64 - log2(bucket count)

	// Versioned-maintenance state (delta.go); all zero for a plain
	// build.
	baseRows  int // rows [0, baseRows) are covered by the packed part
	totalRows int // rows [baseRows, totalRows) are the append region
	// dead tombstones entries (bit e = entry e dead); deletes flip bits
	// here instead of unlinking entries.
	dead      []uint64
	deadCount int
	// app is the sub-table over the append-region column tail, its
	// base the region's first row, with tombstones of its own.
	app *Table

	// filter is the table's bitvector projection (FilterWords), derived
	// on first use and kept for the table's lifetime.
	filterOnce sync.Once
	filter     []uint64
}

// key returns entry e's key.
func (t *Table) key(e int32) int64 {
	if t.rows != nil {
		return t.keys[t.rows[e]]
	}
	return t.keys[e]
}

// row returns entry e's relation row.
func (t *Table) row(e int32) int32 {
	if t.rows != nil {
		return t.rows[e]
	}
	return t.base + e
}

// Build constructs a table over rel's key column, retaining only rows
// whose live bit is set (pass nil to retain all rows). This mirrors
// the semi-join pass, which reduces build relations in place before
// the join phase. With a sparse live mask only set rows are visited:
// dead regions are skipped a whole 64-row word at a time.
func Build(rel *storage.Relation, keyColumn string, live *storage.Bitmap) *Table {
	return buildColumn(rel.Column(keyColumn), live, 1, nil)
}

// MemoryBytes returns the heap footprint of the arrays the table owns:
// the directory, next links and (under a sparse mask) row map, for
// versioned tables the tombstone bitsets and the append sub-table's
// arrays, and the filter projection (one byte per bucket) — charged
// before FilterWords derives it, so a cache's charge at insert stays
// exact. The key column, dead rows included, is the relation's: not
// charged, though a cached table keeps it alive (ApplyDelta moves a
// repaired table onto its successor's column). Repaired tables share
// their packed arrays with the version they were repaired from, charged
// once per cached version: the accounting never under-counts the
// arrays tables own.
func (t *Table) MemoryBytes() int64 {
	b := t.arrayBytes() + int64(t.NumBuckets())
	if t.app != nil {
		b += t.app.arrayBytes()
	}
	return b
}

// arrayBytes is the footprint of one layout's own arrays.
func (t *Table) arrayBytes() int64 {
	return int64(len(t.rows)+len(t.next))*4 + int64(len(t.dir)+len(t.dead))*8
}

// morselRows is the entry granularity of a build's gather and of its
// stop polls.
const morselRows = 128 * 64

// BuildParallelStop is Build with its hashing fanned out over the
// given number of workers (see buildColumn), bit-identical at any
// worker count, and a cooperative cancel hook. stop (nil = never stop)
// is polled before each 8192-entry morsel of a non-empty build — by the
// gather workers when there are several — and once more after a
// parallel gather; a true result abandons the build and returns nil. It
// must be cheap and safe to call from multiple goroutines; a completed
// build does not depend on it. A panic in stop or in a gather worker
// unwinds on the calling goroutine.
func BuildParallelStop(rel *storage.Relation, keyColumn string, live *storage.Bitmap, workers int, stop func() bool) *Table {
	return buildColumn(rel.Column(keyColumn), live, workers, stop)
}

// buildColumn is the builder proper, over a bare key column — shared by
// the relation-level entry points above and by the versioned build in
// delta.go, which also runs it over an append-region column tail. A
// sparse mask (under half its rows set) first lists its live rows in
// the row map, a sequential pass over the mask words; a denser one
// costs fewer bytes as one next slot per mask row, its dead rows' slots
// left unlinked, and probes like an unmasked table. Then one linking
// pass over the entries in descending order makes each entry the head
// of its bucket's chain, ahead of every entry above it, so every chain
// walks in ascending order. An entry costs one hash, one
// read-modify-write of its head word and one store to next.
//
// With workers > 1 the hashing fans out first (gather): each morsel of
// entries stores its keys' top 32 hash bits — bucket and tag index,
// which fit at up to 1<<(32-tagWidth) buckets — in next, and the
// linking pass reads them back just before it overwrites them, so the
// gather needs no scratch. On a 228k-row column two workers measured
// 7.9 ns/row against one worker's 9.4 (BenchmarkBuildWorkers, medians
// of 12 runs, 2 vCPU).
// The table is the same at any worker count.
func buildColumn(keyCol storage.Column, live *storage.Bitmap, workers int, stop func() bool) *Table {
	count := len(keyCol)
	if live != nil {
		count = live.Count()
	}
	size := bucketCount(count)
	t := &Table{
		keys:    keyCol,
		entries: count,
		dir:     make([]uint64, size),
		shift:   uint(64 - bits.TrailingZeros64(uint64(size))),
	}
	var words []uint64 // the dense mask whose set rows are the entries
	switch {
	case live == nil:
		t.next = make([]int32, count)
	case 2*count >= live.Len():
		words = live.Words()
		t.next = make([]int32, live.Len())
	default:
		t.next = make([]int32, count)
		t.rows = make([]int32, count)
		e := 0
		for wi, w := range live.Words() {
			for ; w != 0; w &= w - 1 {
				t.rows[e] = int32(wi<<6 | bits.TrailingZeros64(w))
				e++
			}
		}
	}
	dir, next, rows, shift := t.dir, t.next, t.rows, t.shift
	nMorsels := (len(next) + morselRows - 1) / morselRows
	if min(workers, nMorsels) > 1 && size <= 1<<(32-tagWidth) {
		par.For(workers, nMorsels, stop, func(_, m int) {
			lo := m * morselRows
			hi := min(lo+morselRows, len(next))
			switch {
			case words != nil:
				for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
					for w := words[wi]; w != 0; w &= w - 1 {
						e := wi<<6 | bits.TrailingZeros64(w)
						next[e] = int32(Hash64(keyCol[e]) >> 32)
					}
				}
			case rows == nil:
				for e := lo; e < hi; e++ {
					next[e] = int32(Hash64(keyCol[e]) >> 32)
				}
			default:
				for e := lo; e < hi; e++ {
					next[e] = int32(Hash64(keyCol[rows[e]]) >> 32)
				}
			}
		})
		if stop != nil && stop() {
			return nil
		}
		s := shift - 32 // the gathered bits' shift to the bucket
		if words != nil {
			for wi := len(words) - 1; wi >= 0; wi-- {
				for w := words[wi]; w != 0; {
					e := wi<<6 | (63 - bits.LeadingZeros64(w))
					w ^= 1 << (e & 63)
					link(dir, next, e, uint64(uint32(next[e])), s)
				}
			}
			return t
		}
		for e := len(next) - 1; e >= 0; e-- {
			link(dir, next, e, uint64(uint32(next[e])), s)
		}
		return t
	}
	for lo := (len(next) - 1) &^ (morselRows - 1); lo >= 0; lo -= morselRows {
		if stop != nil && stop() {
			return nil
		}
		// The loops differ only in where the key comes from; a row-map
		// test inside one loop measured 15-25 % slower.
		hi := min(lo+morselRows, len(next))
		switch {
		case words != nil:
			for wi := (hi - 1) >> 6; wi >= lo>>6; wi-- {
				for w := words[wi]; w != 0; {
					e := wi<<6 | (63 - bits.LeadingZeros64(w))
					w ^= 1 << (e & 63)
					link(dir, next, e, Hash64(keyCol[e]), shift)
				}
			}
		case rows == nil:
			for e := hi - 1; e >= lo; e-- {
				link(dir, next, e, Hash64(keyCol[e]), shift)
			}
		default:
			for e := hi - 1; e >= lo; e-- {
				link(dir, next, e, Hash64(keyCol[rows[e]]), shift)
			}
		}
	}
	return t
}

// link makes entry e, whose key hashes to h, the head of its bucket's
// chain in a directory addressed by shift.
func link(dir []uint64, next []int32, e int, h uint64, shift uint) {
	b := h >> shift
	w := dir[b]
	next[e] = int32(w >> linkShift)
	dir[b] = uint64(e+1)<<linkShift | w&tagMask | Tag(h, shift, tagWidth)
}

// bucketCount returns a power-of-two bucket count sized for load
// factor <= 1: with the 16-bit tag early-out, a denser directory costs
// a slightly longer chain walk on hits but halves the directory the
// build links into. Above largeTableRows the load factor relaxes to
// <= 2: the build's random head updates are then miss-bound, and
// halving the directory again buys more than the extra chain entry
// costs.
func bucketCount(n int) int {
	size := 16
	target := n
	if n > largeTableRows {
		target = (n + 1) / 2
	}
	for size < target {
		size <<= 1
	}
	return size
}

// largeTableRows is the row count beyond which the directory would
// outgrow a typical L2 cache (256k slots x 8 bytes = 2 MiB) and the
// build switches to the denser load-<=-2 sizing.
const largeTableRows = 128 * 1024

// Len returns the number of entries in the table — packed part plus
// append region, tombstoned entries included (they remain physically
// present until compaction).
func (t *Table) Len() int {
	n := t.entries
	if t.app != nil {
		n += t.app.entries
	}
	return n
}

// NumBuckets returns the directory size (a power of two).
func (t *Table) NumBuckets() int { return len(t.dir) }

// Shift returns the directory's bucket shift: a key's bucket is
// Bucket(Hash64(key), Shift()).
func (t *Table) Shift() uint { return t.shift }

// FilterWords returns the table's bitvector projection: 8 filter bits
// per bucket, indexed by the top hash bits — the geometry of a
// bitvector filter over this table's keys. A packed key's filter bit
// index at that geometry is bucket<<3 | tagIndex>>1, both already
// encoded in the directory, so the expansion — OR tag-bit pairs,
// compact the even bits into a byte — derives the packed part's bits in
// one tight branchless pass with no rehashing; the append region's keys
// (few by construction) are hashed in at the same geometry. Every
// physically present entry contributes, tombstoned or not: the bits are
// a function of the table's layout alone, so a table repaired by
// ApplyDelta projects exactly the words a cold BuildVersioned of the
// same snapshot does, and a dead entry's surviving bit is a false
// positive the exact probe catches like any tag collision.
//
// The words are derived on first use (safe for concurrent first use)
// and kept for the table's lifetime; callers must not modify them. See
// bitvector.FromTable.
func (t *Table) FilterWords() []uint64 {
	t.filterOnce.Do(func() {
		words := make([]uint64, len(t.dir)>>3)
		for b, w := range t.dir {
			x := (w | w>>1) & 0x5555 // bit 2i |= tag bits 2i, 2i+1
			x = (x | x>>1) & 0x3333  // compact even bits 0,2,..,14 -> 0..7
			x = (x | x>>2) & 0x0f0f
			x = (x | x>>4) & 0x00ff
			words[b>>3] |= x << ((b & 7) << 3)
		}
		if t.app != nil {
			shift := t.shift + 3
			for e := range t.app.next {
				h := Hash64(t.app.key(int32(e)))
				words[h>>shift] |= Tag(h, shift, 6)
			}
		}
		t.filter = words
	})
	return t.filter
}

// ProbeResult holds the outcome of a vectorized probe of a batch of
// keys: per-key match counts and the concatenated matching build rows,
// exactly the layout appended to a factorized chunk after a join
// (count vector-column plus payload rows).
type ProbeResult struct {
	// Counts[i] is the number of matches for input key i (0 for keys
	// skipped by the selection vector).
	Counts []int32
	// Rows holds the matching build-row indices, grouped by input key:
	// key i's matches occupy Rows[Offsets[i]:Offsets[i+1]], in ascending
	// row order.
	Rows []int32
	// Offsets is the exclusive prefix sum of Counts, length len(Counts)+1.
	Offsets []int32
	// Probed is the number of keys actually probed (selection-vector
	// hits); the abstract cost metric counts these.
	Probed int
	// TagHits / TagMisses split Probed by the stage-1 tag filter: a
	// miss was answered by the directory word alone, a hit went on to
	// the chain walk (and may still have found no match — a tag
	// false positive behaving like a hash collision).
	TagHits, TagMisses int
}

// ProbeBatchInto probes all keys whose selection entry is set (nil sel
// probes all) and writes counts, offsets and concatenated match rows
// into a caller-owned result whose slices are reused across calls: in
// steady state it allocates nothing. Each block runs stage 1 then
// stage 2, in ascending order (the offsets chain through the blocks);
// the block lives on the stack, as in ProbeCounts.
func (t *Table) ProbeBatchInto(keys []int64, sel []bool, res *ProbeResult) {
	var c tally
	var blk block
	res.grow(len(keys))
	res.Rows = res.Rows[:0]
	res.Offsets[0] = 0
	for lo := 0; lo < len(keys); lo += probeBlock {
		hi := min(lo+probeBlock, len(keys))
		t.stage1(&blk, keys[lo:hi], lanes(sel, lo, hi), &c)
		t.stage2(&blk, keys[lo:hi], unbounded, res.Counts[lo:hi], res.Offsets[lo:hi+1], &res.Rows)
	}
	st := c.stats()
	res.Probed, res.TagHits, res.TagMisses = st.Probed, st.TagHits, st.TagMisses
}

// ProbeCounts is the batch match-count probe: counts[i] receives the
// number of build rows matching keys[i] for selected lanes, 0
// otherwise. The kernel's block lives on the stack, so concurrent calls
// on a shared table are safe and nothing is allocated. Its non-test
// callers, plan-time measurement (workload/reroot.go) and the benchmark
// harness (benchmark/probes.go), pass a nil sel.
func (t *Table) ProbeCounts(keys []int64, sel []bool, counts []int32) ProbeStats {
	var c tally
	var blk block
	for lo := 0; lo < len(keys); lo += probeBlock {
		hi := min(lo+probeBlock, len(keys))
		t.stage1(&blk, keys[lo:hi], lanes(sel, lo, hi), &c)
		t.stage2(&blk, keys[lo:hi], unbounded, counts[lo:hi], nil, nil)
	}
	return c.stats()
}

// ProbeContains is the batch semi-join probe: for every key whose sel
// entry is set (nil sel probes all), out[i] reports whether the table
// contains keys[i]; unselected lanes get out[i] = false. len(out) must
// equal len(keys). sel and out may share backing storage (in-place
// mask reduction): within each block, stage 1 reads sel[i] before
// out[i] is written. Stack-resident like ProbeCounts, with the match
// limit at 1. Its one non-test caller is the benchmark harness
// (benchmark/probes.go).
func (t *Table) ProbeContains(keys []int64, sel []bool, out []bool) ProbeStats {
	var c tally
	var blk block
	var found [probeBlock]int32
	for lo := 0; lo < len(keys); lo += probeBlock {
		hi := min(lo+probeBlock, len(keys))
		t.stage1(&blk, keys[lo:hi], lanes(sel, lo, hi), &c)
		t.stage2(&blk, keys[lo:hi], 1, found[:hi-lo], nil, nil)
		for i, n := range found[:hi-lo] {
			out[lo+i] = n != 0
		}
	}
	return c.stats()
}

// ReduceLive is the packed-mask semi-join probe: it clears the live
// bit of every set row in [loRow, hiRow) whose key has no match in the
// table, probing (and counting) only rows that are still set. loRow
// must be word-aligned (a multiple of 64); hiRow must be word-aligned
// or equal to live.Len() (the zero tail makes the final partial word
// safe). Disjoint word-aligned ranges touch disjoint mask words,
// so concurrent calls on the same mask are race-free — the semi-join
// pass hands out word-aligned spans, and within one span a parent's
// children reduce in turn, each probing exactly the bits its
// predecessors left set. The set
// rows' keys are gathered into dense kernel blocks — full ones even
// under a sparse mask — and probed with the match limit at 1.
func (t *Table) ReduceLive(keyCol storage.Column, live *storage.Bitmap, loRow, hiRow int) ProbeStats {
	var c tally
	var blk block
	var keys [probeBlock]int64
	var rows [probeBlock]int32
	words := live.Words()
	n := 0
	for wi := loRow >> 6; wi < (hiRow+63)>>6; wi++ {
		for m := words[wi]; m != 0; m &= m - 1 {
			row := wi<<6 + bits.TrailingZeros64(m)
			rows[n], keys[n] = int32(row), keyCol[row]
			if n++; n == probeBlock {
				t.reduceBlock(&blk, keys[:n], rows[:n], words, &c)
				n = 0
			}
		}
	}
	t.reduceBlock(&blk, keys[:n], rows[:n], words, &c)
	return c.stats()
}

// reduceBlock probes one gathered block of ReduceLive and clears the
// mask bits of the rows it finds no match for.
func (t *Table) reduceBlock(blk *block, keys []int64, rows []int32, words []uint64, c *tally) {
	var found [probeBlock]int32
	t.stage1(blk, keys, nil, c)
	t.stage2(blk, keys, 1, found[:len(keys)], nil, nil)
	for j, row := range rows {
		words[row>>6] &^= uint64(found[j]^1) << (row & 63)
	}
}
