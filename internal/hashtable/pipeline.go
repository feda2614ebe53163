// The probe kernel: the two stages every probe of a Table runs, written
// once. Stage 1 hashes a block of keys, fetches their head words and
// filters on the tag — independent loads the memory system overlaps; a
// lane whose tag bit is absent is answered with no further traffic —
// and for survivors records the chain's first entry with the verdict on
// its key and the link to its successor — loads that double as the
// software prefetch of the entry. Stage 2 walks the chains from there,
// verifying exact keys — for a semi-join probe, every lane's chain a
// step at a time, so their loads overlap too. A versioned table's
// tombstones and append region live inside the two bodies: stage 1 also
// consults the append sub-table's directory, and stage 2 skips dead
// entries. Every entry point — ProbeBatchInto,
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
// enough to overlap the first-entry loads, short enough that the touched lines
// still sit in cache when stage 2 reads them.
const probeBlock = 256

// A lane index must fit the byte the block's lane lists store it in.
const _ = uint8(probeBlock - 1)

// unbounded is stage 2's match limit for probes that want every match.
const unbounded = math.MaxInt32

// block is what one block of lanes carries from stage 1 to stage 2. One
// block is live only between a stage 1 and its stage 2, so chain state
// never scales with the probe width.
type block struct {
	// chains and app hold, per lane that reached the table, the chain of
	// the key's bucket in the table's own directory and in the append
	// sub-table's (all zero without one), as probeDir records it; 0
	// means the directory word alone answered.
	chains, app [probeBlock]uint64
	// hit lists the first nhit lanes with a chain to walk, ascending.
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
// sub-table's (probeDir), and lists the lanes left with a chain to
// walk.
func (t *Table) stage1(blk *block, keys []int64, sel []bool, c *tally) {
	lanes := allLanes[:len(keys)]
	if sel != nil {
		lanes = blk.selectLanes(sel)
	}
	t.probeDir(keys, lanes, &blk.chains)
	if t.app != nil {
		t.app.probeDir(keys, lanes, &blk.app)
	} else {
		clear(blk.app[:len(keys)])
	}
	nhit := 0
	for _, l := range lanes {
		blk.hit[nhit] = l
		r := blk.chains[l] | blk.app[l]
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

// probeDir is the directory half of stage 1, in two passes over the
// listed lanes. The first hashes each key, fetches its bucket's head
// word and keeps the link to the chain's first entry when the key's tag
// bit is present, 0 otherwise (a tagged bucket is never empty, so its
// link is never 0). The second loads each first entry's key and next
// link and records the chain as next<<33 | link<<1 | firstMatches (an
// entry index and a link each fit 31 bits). Each pass issues only loads
// that are independent across lanes, so the memory system overlaps
// them, and stage 2 starts from an entry already in cache with its
// successor known: a one-entry chain costs it no load (3.8 % less cpu
// per query on serve_warm_mix than loading next there, 4 of 5 pairs).
// The lane bodies are branch-free on the data: an untagged
// lane reads entry 0, a line that stays hot, and masks the result away,
// so nothing here mispredicts. The row-map test is the same for every
// lane.
func (t *Table) probeDir(keys []int64, lanes []uint8, chains *[probeBlock]uint64) {
	dir, tkeys, next, rows, shift := t.dir, t.keys, t.next, t.rows, t.shift
	if len(next) == 0 {
		clear(chains[:])
		return
	}
	for _, l := range lanes {
		h := Hash64(keys[l])
		w := dir[h>>shift]
		chains[l] = w >> linkShift & -(w >> tagIndex(h, shift, tagWidth) & 1) // the link iff the tag bit is in w
	}
	for _, l := range lanes {
		link := chains[l]
		tagged := -((link | -link) >> 63) // all ones iff link != 0
		e := (link - 1) & tagged
		r := uint64(next[e])<<33 | link<<1
		if rows != nil {
			e = uint64(rows[e])
		}
		if tkeys[e] == keys[l] {
			r |= 1
		}
		chains[l] = r & tagged
	}
}

// stage2 runs the second stage over the block stage 1 just filled: for
// each lane with a chain it walks the recorded chains — own directory
// first, then the append region's, which is ascending row order because
// every append row sits above the base — stopping after limit matches,
// and writes every lane's match count. A semi-join probe (limit 1, no
// rows) walks the own chains of all lanes at once (findChains). With
// rows non-nil it appends the matching rows to *rows and chains offsets
// (offsets[0] is the block's starting cursor) through them, so blocks
// must then be verified in ascending order: gathering after a counting
// pass measured 20-27 % slower than walking lane by lane.
func (t *Table) stage2(blk *block, keys []int64, limit int32, counts, offsets []int32, rows *[]int32) {
	clear(counts)
	if limit == 1 && rows == nil {
		t.findChains(blk, keys, counts)
		if t.app != nil {
			for _, l := range blk.hit[:blk.nhit] {
				if c := blk.app[l]; c != 0 && counts[l] == 0 {
					counts[l] = t.app.walk(c, keys[l], 1, nil)
				}
			}
		}
		return
	}
	for _, l := range blk.hit[:blk.nhit] {
		key := keys[l]
		var n int32
		if c := blk.chains[l]; c != 0 {
			n = t.walk(c, key, limit, rows)
		}
		if c := blk.app[l]; c != 0 && n < limit {
			n += t.app.walk(c, key, limit-n, rows)
		}
		counts[l] = n
	}
	if rows == nil {
		return
	}
	off := offsets[0]
	for i, n := range counts {
		off += n
		offsets[i+1] = off
	}
}

// findChains is stage 2 over the table's own chains for a semi-join
// probe: found[l] becomes 1 if lane l's key has a live entry. The
// chains of all lanes advance one entry per round, so the key and next
// loads of different lanes overlap instead of each waiting on the one
// before; a lane leaves the round list, without a branch, once it
// matches or its chain ends. On BenchmarkShapes (10 alternating runs,
// 2 vCPU) it beat walking lane by lane by 5-17 % on ReduceLive, but
// not on unlimited counts, so ProbeCounts walks.
func (t *Table) findChains(blk *block, keys []int64, found []int32) {
	next, dead := t.next, t.dead
	var cur [probeBlock]int32 // per listed lane, the link to its next entry
	act := blk.lane[:]        // selectLanes' scratch, free in stage 2
	n := 0
	for _, l := range blk.hit[:blk.nhit] {
		c := blk.chains[l]
		if c == 0 {
			continue // a hit in the append region only
		}
		e := int32(uint32(c>>1)) - 1
		m := int32(c & 1) // the first entry's verdict came from stage 1
		if dead != nil {
			m &^= int32(dead[e>>6]>>(uint32(e)&63)) & 1
		}
		found[l], cur[l] = m, int32(c>>33)
		act[n] = l
		n += b2i(cur[l] != 0 && m == 0)
	}
	for n > 0 {
		k := 0
		for _, l := range act[:n] {
			e := cur[l] - 1
			m := int32(b2i(t.key(e) == keys[l]))
			if dead != nil {
				m &^= int32(dead[e>>6]>>(uint32(e)&63)) & 1
			}
			found[l], cur[l] = m, next[e]
			act[k] = l
			k += b2i(cur[l] != 0 && m == 0)
		}
		n = k
	}
}

// b2i is 1 for true and 0 for false, without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// walk follows one recorded chain: it counts — and with rows non-nil
// gathers — the entries whose key is key and whose tombstone bit is
// clear, up to limit (at least 1). The match test accumulates without
// a branch; only gathering branches on it.
func (t *Table) walk(chain uint64, key int64, limit int32, rows *[]int32) (n int32) {
	next, dead := t.next, t.dead
	e := int32(uint32(chain>>1)) - 1
	link := int32(chain >> 33)
	m := int32(chain & 1) // the first entry's verdict came from stage 1
	for {
		if dead != nil {
			m &^= int32(dead[e>>6]>>(uint32(e)&63)) & 1
		}
		if rows != nil && m != 0 {
			*rows = append(*rows, t.row(e))
		}
		if n += m; n >= limit {
			return n
		}
		if link == 0 {
			return n
		}
		e = link - 1
		link = next[e]
		m = 0
		if t.key(e) == key {
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
