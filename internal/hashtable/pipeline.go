// The probe kernel: the two stages every probe of a Table runs, written
// once. Stage 1 hashes a block of keys, fetches their directory words
// and filters on the tag — independent loads the memory system
// overlaps; a lane whose tag bit is absent is answered with no further
// traffic — and for survivors records the bucket run with the verdict
// on its first key, a load that doubles as the software prefetch of the
// line stage 2 scans. Stage 2 verifies exact keys against those runs.
// A versioned table's tombstones and append region live inside the two
// bodies: stage 1 also consults the append sub-table's directory, and
// stage 2 skips dead entries. Every entry point — ProbeBatchInto,
// ProbeCounts, ProbeContains and ReduceLive — drives this pair block by
// block over a stack-resident block, so they count and answer alike by
// construction.
//
// Both stages are sequences of short passes over the block, each a
// tight loop with few live values; the passes that touch table memory
// are branch-free per lane or visit only the lanes with work left, so a
// tag miss costs neither a second load nor a mispredicted branch.
package hashtable

import (
	"math"

	"m2mjoin/internal/buf"
)

// probeBlock is the lane count of one kernel block: stage 1 tag-filters
// and prefetches probeBlock keys before stage 2 verifies them, long
// enough to overlap the run loads, short enough that the touched lines
// still sit in cache when stage 2 reads them.
const probeBlock = 256

// A lane index must fit the byte the block's lane lists store it in.
const _ = uint8(probeBlock - 1)

// unbounded is stage 2's match limit for probes that want every match.
const unbounded = math.MaxInt32

// block is what one block of lanes carries from stage 1 to stage 2. One
// block is live only between a stage 1 and its stage 2, so run state
// never scales with the probe width.
type block struct {
	// runs and app hold, per lane that reached the table, the run of the
	// key's bucket in the table's own directory and in the append
	// sub-table's (all zero without one); 0 means the directory word
	// alone answered.
	runs, app [probeBlock]uint64
	// hit lists the first nhit lanes with a run to verify, ascending.
	hit  [probeBlock]uint8
	nhit int
	// lane is selectLanes' scratch.
	lane [probeBlock]uint8
}

// allLanes is the lane list of an unselected block.
var allLanes = func() (a [probeBlock]uint8) {
	for i := range a {
		a[i] = uint8(i)
	}
	return a
}()

// tally is stage 1's count of what happened to its lanes.
type tally struct {
	selected int // lanes probed (sel entry set, or every lane)
	tagMiss  int // of those, answered by the directory word(s) alone
}

// stats is the table-probe view of the tally: a hit is a tag bit
// present in either directory.
func (c tally) stats() ProbeStats {
	return ProbeStats{Probed: c.selected, TagHits: c.selected - c.tagMiss, TagMisses: c.tagMiss}
}

// stage1 runs the first stage over one block of at most probeBlock
// keys: it lists the selected lanes (selectLanes), probes the table's
// directory for them and, when there is an append region, the
// sub-table's (probeDir), and lists the lanes left with a run to
// verify.
func (t *Table) stage1(blk *block, keys []int64, sel []bool, c *tally) {
	lanes := allLanes[:len(keys)]
	if sel != nil {
		lanes = blk.selectLanes(sel)
	}
	t.probeDir(keys, lanes, &blk.runs)
	if t.app != nil {
		t.app.probeDir(keys, lanes, &blk.app)
	} else {
		clear(blk.app[:len(keys)])
	}
	nhit := 0
	for _, l := range lanes {
		blk.hit[nhit] = l
		r := blk.runs[l] | blk.app[l]
		nhit += int((r | -r) >> 63) // r != 0
	}
	blk.nhit = nhit
	c.selected += len(lanes)
	c.tagMiss += len(lanes) - nhit
}

// selectLanes lists the lanes whose sel entry is set. The store is
// unconditional and only the cursor advances on a set entry, so the
// loop has no data-dependent branch.
func (blk *block) selectLanes(sel []bool) []uint8 {
	n := 0
	for i, probe := range sel {
		blk.lane[n] = uint8(i)
		if probe {
			n++
		}
	}
	return blk.lane[:n]
}

// probeDir is the directory half of stage 1: for each listed lane it
// hashes the key, fetches its bucket's directory word and tests the
// tag, and records in runs the bucket's entry range with the first-key
// verdict, packed as start<<33 | end<<1 | firstMatches — or 0 when the
// tag bit is absent (a tagged bucket is never empty, so a packed run is
// never 0). The lane body is branch-free: an untagged lane compares
// against entry 0, a line that stays hot, and masks the result away, so
// nothing here mispredicts and the loads of different lanes — this loop
// is where the memory system overlaps them — are never flushed.
func (t *Table) probeDir(keys []int64, lanes []uint8, runs *[probeBlock]uint64) {
	dir, tkeys, shift := t.dir, t.keys, t.shift
	if len(tkeys) == 0 {
		clear(runs[:])
		return
	}
	for _, l := range lanes {
		key := keys[l]
		h := Hash64(key)
		b := h >> shift
		w := dir[b]
		tagged := -(w >> tagIndex(h, shift, tagWidth) & 1) // all ones iff the tag bit is in w
		start := w >> offShift & tagged
		r := start<<33 | (dir[b+1]>>offShift)<<1
		if tkeys[start] == key {
			r |= 1
		}
		runs[l] = r & tagged
	}
}

// stage2 runs the second stage over the block stage 1 just filled: for
// each lane with a run it verifies the recorded runs — own directory
// first, then the append region's, which is ascending row order because
// every append row sits above the base — stopping after limit matches,
// and writes every lane's match count. With rows non-nil it also
// appends the matching rows to *rows and chains offsets (offsets[0] is
// the block's starting cursor) through them, so blocks must then be
// verified in ascending order.
func (t *Table) stage2(blk *block, keys []int64, limit int32, counts, offsets []int32, rows *[]int32) {
	clear(counts)
	for _, l := range blk.hit[:blk.nhit] {
		key := keys[l]
		var n int32
		if run := blk.runs[l]; run != 0 {
			n = t.scan(run, key, limit, rows)
		}
		if run := blk.app[l]; run != 0 && n < limit {
			n += t.app.scan(run, key, limit-n, rows)
		}
		counts[l] = n
	}
	if rows != nil {
		off := offsets[0]
		for i, n := range counts {
			off += n
			offsets[i+1] = off
		}
	}
}

// scan verifies one recorded run: it counts — and with rows non-nil
// gathers — the entries whose key is key and whose tombstone bit is
// clear, up to limit (at least 1). The match test accumulates without a
// branch; only gathering branches on it.
func (t *Table) scan(run uint64, key int64, limit int32, rows *[]int32) (n int32) {
	tkeys, dead := t.keys, t.dead
	m := int32(run & 1) // the first entry's verdict came from stage 1
	for e, end := run>>33, run>>1&(1<<32-1); ; {
		if dead != nil {
			m &^= int32(dead[e>>6]>>(e&63)) & 1
		}
		if rows != nil && m != 0 {
			*rows = append(*rows, t.rows[e])
		}
		n += m
		if e++; e >= end || n >= limit {
			return n
		}
		m = 0
		if tkeys[e] == key {
			m = 1
		}
	}
}

// lanes reslices an optional per-lane mask to one block (nil stays nil).
func lanes(s []bool, lo, hi int) []bool {
	if s == nil {
		return nil
	}
	return s[lo:hi]
}

// grow sizes the per-key scratch (counts and offsets) for an n-key
// probe. Both go through buf.Grow, which over-allocates 25% headroom —
// the same policy as the factor-chunk scratch — so alternating
// large/small probe batches (the executor's short final chunk, queries
// with different chunk sizes) settle into a steady state instead of
// reallocating on every size flip. Rows grows by append
// from a length-0 reslice, which also preserves capacity.
func (res *ProbeResult) grow(n int) {
	res.Counts = buf.Grow(res.Counts, n)
	res.Offsets = buf.Grow(res.Offsets, n+1)
}
