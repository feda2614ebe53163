// Package hashtable implements the cache-conscious tagged hash table
// of the execution engine (Section 4.2-4.3, Fig. 7), in an unchained
// layout: a directory of packed uint64 slots, each holding a 16-bit
// Bloom tag plus the offset of that bucket's contiguous run in the
// bucket-sorted keys/rows arrays. A non-matching probe is answered by
// the directory word alone — the tag bit of the probe hash is absent —
// with no second load; a matching probe scans one contiguous run
// instead of chasing a chain through random cache lines. Every probe
// is the two-stage kernel of pipeline.go: stage 1 hashes a block of
// keys, fetches their directory words, filters on tags and compares
// each surviving run's first key (a load that doubles as a software
// prefetch of the run's cache line); stage 2 verifies exact keys
// against the prefetched runs. Probing reports the per-key match count
// — the quantity the factorized representation stores in its count
// vector-columns.
package hashtable

import (
	"math/bits"
	"sync"

	"m2mjoin/internal/buf"
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
	// offShift positions the run offset above the tag in a packed slot:
	// slot = offset<<offShift | tag.
	offShift = 1 << tagWidth
	tagMask  = 1<<offShift - 1
)

// ProbeStats counts the outcome of a batch probe: how many keys were
// probed, and how the tag filter split them. TagMisses are probes
// answered by the directory word alone (the key's tag bit is absent —
// definitely no match, no key load); TagHits proceed to run
// verification and may still find nothing (a tag false positive, which
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
// build relation. keys and rows are bucket-sorted: bucket b's entries
// occupy the contiguous run [dir[b]>>offShift, dir[b+1]>>offShift),
// in ascending retained-row order within the run.
type Table struct {
	keys []int64 // build key per retained row, bucket-sorted
	rows []int32 // original relation row index per retained row
	// dir is the packed directory, one slot per bucket plus a sentinel:
	// dir[b] = runStart<<offShift | tag16, where tag16 is the OR of
	// Tag(h) over the bucket's keys; dir[len-1] holds the total count.
	dir   []uint64
	shift uint // 64 - log2(bucket count)

	// Versioned-maintenance state (delta.go); all zero for a plain
	// build.
	baseRows  int // rows [0, baseRows) are covered by the packed part
	totalRows int // rows [baseRows, totalRows) are the append region
	// dead tombstones entries (bit e = entry e dead); deletes flip bits
	// here instead of disturbing the sorted layout.
	dead      []uint64
	deadCount int
	// app is the packed sub-table over the append-region column tail,
	// its rows already remapped to global indices, with tombstones of
	// its own.
	app *Table

	// filter is the table's bitvector projection (FilterWords), derived
	// on first use and kept for the table's lifetime.
	filterOnce sync.Once
	filter     []uint64
}

// tag returns the table's tag bit for hash h.
func (t *Table) tag(h uint64) uint64 { return Tag(h, t.shift, tagWidth) }

// Build constructs a table over rel's key column, retaining only rows
// whose live bit is set (pass nil to retain all rows). This mirrors
// the semi-join pass, which reduces build relations in place before
// the join phase. With a sparse live mask only set rows are visited:
// dead regions are skipped a whole 64-row word at a time.
func Build(rel *storage.Relation, keyColumn string, live *storage.Bitmap) *Table {
	return BuildParallelStop(rel, keyColumn, live, 1, nil)
}

// MemoryBytes returns the heap footprint of the table's backing
// arrays: the bucket-sorted key and row arrays plus the packed
// directory, for versioned tables the tombstone bitsets and the append
// sub-table, and the filter projection (one byte per bucket) — charged
// whether or not FilterWords has derived it yet, so a byte charge taken
// when the table enters a cache stays exact after a BVP query's first
// use. Repaired tables share their packed arrays with the version they
// were repaired from, so when several versions are cached at once the
// shared arrays are charged once per version: the accounting is
// conservative (never under-counts resident bytes).
func (t *Table) MemoryBytes() int64 {
	b := t.arrayBytes() + int64(t.NumBuckets())
	if t.app != nil {
		b += t.app.arrayBytes()
	}
	return b
}

// arrayBytes is the footprint of one packed layout's own arrays.
func (t *Table) arrayBytes() int64 {
	return int64(len(t.keys))*8 + int64(len(t.rows))*4 + int64(len(t.dir))*8 + int64(len(t.dead))*8
}

// morselRows is the row granularity of the parallel build: 128 packed
// bitmap words, so morsel boundaries are always word-aligned.
const morselRows = 128 * 64

// minParallelBuildRows gates the parallel build: below this the
// goroutine fan-out costs more than the hashing it spreads.
const minParallelBuildRows = 4 * 1024

// BuildParallelStop is Build fanned out over the given number of
// workers using a two-pass morsel scheme that produces the
// bucket-sorted layout deterministically — bit-identical at any worker
// count:
//
//  1. a cheap counting pass (popcount over the live mask) assigns each
//     morsel its deterministic write offset, so the parallel pass can
//     gather — the expensive part — the hashed bucket/tag of every
//     live row (plus, under a mask, the row index) into disjoint slots
//     of pooled row-ordered scratch;
//  2. a sequential, hash-free finish histograms the buckets into the
//     directory (the in-place prefix sum turns counts into run
//     offsets) and scatters the entries into their bucket runs in
//     ascending row order, bumping each run offset in the directory
//     itself.
//
// Both sequential steps depend only on the scratch arrays, which are
// identical at any parallelism, so the table is too. The sequential
// path (workers <= 1 or a small build) runs the same histogram /
// prefix / scatter pipeline scratch-free, rehashing in the scatter.
//
// stop is the cooperative cancel hook (nil = never stop): it is polled
// before a non-empty build, before each morsel of the parallel gather
// pass and between the passes, and a true result abandons the build and
// returns nil. It must be cheap and safe to call from multiple
// goroutines; a completed build does not depend on it. A panic in stop
// or in a gather worker unwinds on the calling goroutine.
func BuildParallelStop(rel *storage.Relation, keyColumn string, live *storage.Bitmap, workers int, stop func() bool) *Table {
	return buildColumn(rel.Column(keyColumn), live, workers, stop)
}

// buildColumn is the builder proper, over a bare key column — shared by
// the relation-level entry points above and by the versioned build in
// delta.go, which also runs it over append-region column slices.
func buildColumn(keyCol storage.Column, live *storage.Bitmap, workers int, stop func() bool) *Table {
	total := len(keyCol)
	count := total
	if live != nil {
		count = live.Count()
	}
	size := bucketCount(count)
	t := &Table{
		keys:  make([]int64, count),
		rows:  make([]int32, count),
		dir:   make([]uint64, size+1),
		shift: uint(64 - bits.TrailingZeros64(uint64(size))),
	}
	if count == 0 {
		return t
	}
	if stop != nil && stop() {
		return nil
	}

	nMorsels := (total + morselRows - 1) / morselRows
	if min(workers, nMorsels) <= 1 || count < minParallelBuildRows {
		// Sequential build: two scratch-free passes over the key
		// column. Pass 1 histograms buckets and tags straight into the
		// directory; pass 2 (after the prefix sum) rehashes each key
		// and scatters it into its run — recomputing the ~5-op hash is
		// as cheap as writing and re-reading a per-row scratch word
		// (measured equal), and leaves the sequential build with no
		// scratch at all.
		t.histogram(keyCol, live)
		if stop != nil && stop() {
			return nil
		}
		t.prefixSum()
		t.scatterRehash(keyCol, live)
	} else {
		// Parallel build: the expensive hashing must fan out, so each
		// morsel gathers its rows' hashed bucket/tag (and, under a
		// mask, row indices) into disjoint slots of pooled row-ordered
		// scratch; the sequential finish is then hash-free. Every
		// scratch slot in [0, count) is overwritten before it is read,
		// so stale pool contents are harmless.
		g := scratchPool.Get().(*buildScratch)
		defer scratchPool.Put(g)
		g.hb = buf.Grow(g.hb, count)
		if live != nil {
			g.rows = buf.Grow(g.rows, count)
		}
		// Pass 1a: per-morsel live counts -> exclusive write offsets.
		offsets := make([]int, nMorsels+1)
		for m := 0; m < nMorsels; m++ {
			lo := m * morselRows
			hi := min(lo+morselRows, total)
			n := hi - lo
			if live != nil {
				n = live.CountRange(lo, hi)
			}
			offsets[m+1] = offsets[m] + n
		}
		// Pass 1b (parallel): gather into disjoint scratch slots, stop
		// polled before each morsel. A panic in a gather worker or in
		// stop reaches the caller once the pool drains (par.For).
		par.For(workers, nMorsels, stop, func(_, m int) {
			lo := m * morselRows
			t.gatherMorsel(g, keyCol, live, lo, min(lo+morselRows, total), offsets[m])
		})
		if stop != nil && stop() {
			return nil
		}
		// Histogram from the gathered bucket/tag words. Adds and ORs
		// commute, so this equals the sequential histogram bit for
		// bit; the scatter below then places entries in the same
		// ascending row order the sequential scatter uses.
		for _, x := range g.hb {
			b := x >> offShift
			t.dir[b] = (t.dir[b] + 1<<offShift) | x&tagMask
		}
		t.prefixSum()
		if live == nil {
			for i, x := range g.hb {
				b := x >> offShift
				p := t.dir[b] >> offShift
				t.keys[p] = keyCol[i]
				t.rows[p] = int32(i)
				t.dir[b] += 1 << offShift
			}
		} else {
			for i, x := range g.hb {
				b := x >> offShift
				p := t.dir[b] >> offShift
				row := g.rows[i]
				t.keys[p] = keyCol[row]
				t.rows[p] = row
				t.dir[b] += 1 << offShift
			}
		}
	}
	// The scatter bumped every run offset to its END; the backward
	// shift turns ends back into starts (= the previous bucket's end).
	for b := size - 1; b >= 1; b-- {
		t.dir[b] = t.dir[b-1]&^tagMask | t.dir[b]&tagMask
	}
	t.dir[0] &= tagMask
	return t
}

// histogram counts each live row's bucket in the directory's offset
// bits and ORs its tag into the tag bits of the same word.
func (t *Table) histogram(keyCol storage.Column, live *storage.Bitmap) {
	if live == nil {
		for _, key := range keyCol {
			h := Hash64(key)
			b := h >> t.shift
			t.dir[b] = (t.dir[b] + 1<<offShift) | t.tag(h)
		}
		return
	}
	for wi, w := range live.Words() {
		base := wi << 6
		for w != 0 {
			row := base + bits.TrailingZeros64(w)
			w &= w - 1
			h := Hash64(keyCol[row])
			b := h >> t.shift
			t.dir[b] = (t.dir[b] + 1<<offShift) | t.tag(h)
		}
	}
}

// prefixSum exclusive-prefix-sums the histogram counts in place, so
// dir[b]>>offShift becomes bucket b's run start (dir[size] = count),
// with accumulated tags preserved.
func (t *Table) prefixSum() {
	var off uint64
	for i := range t.dir {
		c := t.dir[i] >> offShift
		t.dir[i] = off<<offShift | t.dir[i]&tagMask
		off += c
	}
}

// scatterRehash places each live row into its bucket run in ascending
// row order, bumping the run offset in the directory itself (no cursor
// array) and recomputing the key hash instead of reading scratch.
func (t *Table) scatterRehash(keyCol storage.Column, live *storage.Bitmap) {
	if live == nil {
		for row, key := range keyCol {
			b := Hash64(key) >> t.shift
			p := t.dir[b] >> offShift
			t.keys[p] = key
			t.rows[p] = int32(row)
			t.dir[b] += 1 << offShift
		}
		return
	}
	for wi, w := range live.Words() {
		base := wi << 6
		for w != 0 {
			row := base + bits.TrailingZeros64(w)
			w &= w - 1
			key := keyCol[row]
			b := Hash64(key) >> t.shift
			p := t.dir[b] >> offShift
			t.keys[p] = key
			t.rows[p] = int32(row)
			t.dir[b] += 1 << offShift
		}
	}
}

// buildScratch holds the row-ordered intermediate of a parallel build:
// the hashed bucket/tag per live row, plus (only under a live mask)
// the retained row indices, pooled across builds.
type buildScratch struct {
	rows []int32
	hb   []uint64 // bucket<<offShift | tag bit
}

var scratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

// gatherMorsel writes the row indices and hashed bucket/tag of the
// live rows in [lo, hi) starting at scratch offset off.
func (t *Table) gatherMorsel(g *buildScratch, keyCol storage.Column, live *storage.Bitmap, lo, hi, off int) {
	idx := off
	if live == nil {
		for row := lo; row < hi; row++ {
			h := Hash64(keyCol[row])
			g.hb[idx] = (h>>t.shift)<<offShift | t.tag(h)
			idx++
		}
		return
	}
	words := live.Words()
	for wi := lo >> 6; wi < (hi+63)>>6; wi++ {
		w := words[wi]
		base := wi << 6
		for w != 0 {
			row := base + bits.TrailingZeros64(w)
			w &= w - 1
			h := Hash64(keyCol[row])
			g.rows[idx] = int32(row)
			g.hb[idx] = (h>>t.shift)<<offShift | t.tag(h)
			idx++
		}
	}
}

// bucketCount returns a power-of-two bucket count sized for load
// factor <= 1: with contiguous runs and the 16-bit tag early-out, a
// denser directory costs a slightly longer run scan on hits but halves
// the directory footprint the build histograms and scatters over (the
// chained layout needed load <= 0.5 to keep chains short). Above
// largeTableRows the load factor relaxes to <= 2: the build's two
// random-access directory passes are then miss-bound, and halving the
// directory again buys more than the extra run entry costs.
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
	n := len(t.keys)
	if t.app != nil {
		n += len(t.app.keys)
	}
	return n
}

// NumBuckets returns the directory size (a power of two).
func (t *Table) NumBuckets() int { return len(t.dir) - 1 }

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
		size := len(t.dir) - 1
		words := make([]uint64, size>>3)
		for b, w := range t.dir[:size] {
			x := (w | w>>1) & 0x5555 // bit 2i |= tag bits 2i, 2i+1
			x = (x | x>>1) & 0x3333  // compact even bits 0,2,..,14 -> 0..7
			x = (x | x>>2) & 0x0f0f
			x = (x | x>>4) & 0x00ff
			words[b>>3] |= x << ((b & 7) << 3)
		}
		if t.app != nil {
			shift := t.shift + 3
			for _, key := range t.app.keys {
				h := Hash64(key)
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
	// run verification (and may still have found no match — a tag
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
// on a shared table are safe and nothing is allocated.
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
// limit at 1.
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
