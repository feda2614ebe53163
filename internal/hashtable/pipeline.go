// The probe kernel: the two stages every probe of a Table runs, written
// once. Stage 1 hashes a block of keys, fetches their directory words
// and filters on the tag — independent loads the memory system
// overlaps; a lane whose tag bit is absent is answered with no further
// traffic — and for survivors records the bucket run with the verdict
// on its first key, a load that doubles as the software prefetch of the
// line stage 2 scans. Stage 2 verifies exact keys against those runs.
// A versioned table's tombstones and append region live inside the two
// bodies: stage 1 also consults the append sub-table's directory, and
// stage 2 skips dead entries. Every entry point is this pair under a
// different driver: ProbePipeline makes it resumable so an executor can
// interleave several tables' stages from one chunk loop, ProbeBatchInto
// drives a pipeline back to back, and ProbeCounts, ProbeContains and
// ReduceLive run it over a stack-resident block — so any schedule of
// the stages is bit-identical to any other by construction.
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

// ProbeBlock is the lane count of one kernel block: stage 1 tag-filters
// and prefetches ProbeBlock keys before stage 2 verifies them, long
// enough to overlap the run loads, short enough that the touched lines
// still sit in cache when stage 2 reads them.
const ProbeBlock = 256

// A lane index must fit the byte the block's lane lists store it in.
const _ = uint8(ProbeBlock - 1)

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
	runs, app [ProbeBlock]uint64
	// hit lists the first nhit lanes with a run to verify, ascending.
	hit  [ProbeBlock]uint8
	nhit int
	// lane is selectLanes' scratch.
	lane [ProbeBlock]uint8
}

// allLanes is the lane list of an unselected, unfiltered block.
var allLanes = func() (a [ProbeBlock]uint8) {
	for i := range a {
		a[i] = uint8(i)
	}
	return a
}()

// tally is stage 1's count of what happened to its lanes.
type tally struct {
	selected int // lanes probed (sel entry set, or every lane)
	filtered int // of those, pruned by the fused filter
	tagMiss  int // of the rest, answered by the directory word(s) alone
}

// stats is the table-probe view of the tally: filtered lanes never
// reached the table, and a hit is a tag bit present in either directory.
func (c tally) stats() ProbeStats {
	probed := c.selected - c.filtered
	return ProbeStats{Probed: probed, TagHits: probed - c.tagMiss, TagMisses: c.tagMiss}
}

// stage1 runs the first stage over one block of at most ProbeBlock
// keys: it lists the lanes that reach the table (selectLanes), probes
// the table's directory for them and, when there is an append region,
// the sub-table's (probeDir), and lists the lanes left with a run to
// verify.
func (t *Table) stage1(blk *block, keys []int64, sel []bool,
	fbits []uint64, fshift uint, pass []bool, c *tally) {
	lanes, selected := allLanes[:len(keys)], len(keys)
	if sel != nil || fbits != nil {
		lanes, selected = blk.selectLanes(keys, sel, fbits, fshift, pass)
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
	c.selected += selected
	c.filtered += selected - len(lanes)
	c.tagMiss += len(lanes) - nhit
}

// selectLanes lists the lanes that reach the table: the keys whose sel
// entry is set (nil sel: all), minus — with fbits non-nil — those a
// fused bitvector filter prunes. Only filter survivors touch the
// directory (which rehashes their keys: a few ALU ops against a load
// saved), and pass receives the survivor mask (sel ∧ filter hit) a
// separate filter pass would have produced, so the tally splits exactly
// like the unfused sequence.
// fbits/fshift are the filter's raw geometry (bitvector.Filter shares
// Hash64, Bucket and the width-6 Tag derivation; reproduced here
// without an import cycle). selected counts the sel-passing lanes.
func (blk *block) selectLanes(keys []int64, sel []bool,
	fbits []uint64, fshift uint, pass []bool) (lanes []uint8, selected int) {
	n := 0
	for i, key := range keys {
		probe := sel == nil || sel[i]
		if probe {
			selected++
			if fbits != nil {
				h := Hash64(key)
				probe = fbits[h>>fshift]&Tag(h, fshift, 6) != 0
			}
		}
		if pass != nil {
			pass[i] = probe
		}
		blk.lane[n] = uint8(i)
		if probe {
			n++
		}
	}
	return blk.lane[:n], selected
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
func (t *Table) probeDir(keys []int64, lanes []uint8, runs *[ProbeBlock]uint64) {
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

// ProbePipeline is one table's resumable batch probe. Begin binds the
// inputs and result; the caller then drives Stage1(b)/Stage2(b) for
// blocks b = 0..NumBlocks()-1 — Stage2(b) after Stage1(b) and before
// this pipeline's next Stage1 (run state is one block deep), in
// ascending block order, with any other pipeline's stages freely
// interleaved in between — and End finalizes the result's counters.
// Each table's stage 1 issues its memory traffic and returns; by the
// time the caller comes back for stage 2, other tables' stage-1 loads
// have been issued in between, so directory and run misses from
// different relations overlap instead of serializing one relation at a
// time.
type ProbePipeline struct {
	t    *Table
	keys []int64
	sel  []bool
	res  *ProbeResult
	blk  block

	// Fused filter pass (BeginFused): raw filter words and shift, plus
	// the survivor mask written by stage 1.
	fbits  []uint64
	fshift uint
	pass   []bool

	tally tally
}

// Begin binds the pipeline to one probe: keys (with optional selection
// mask sel) against t, into res. res's scratch is sized here; its
// slices are reused across probes, so steady-state use allocates
// nothing.
func (p *ProbePipeline) Begin(t *Table, keys []int64, sel []bool, res *ProbeResult) {
	p.BeginFused(t, keys, sel, res, nil, 0, nil)
}

// BeginFused is Begin with a bitvector filter pass fused into stage 1:
// fbits/fshift are the filter's raw words and bucket shift
// (bitvector.Filter.Words / WordShift), and pass — len(keys), caller-
// owned — receives the survivor mask (sel ∧ filter hit). Counters
// split exactly as if a separate Filter.ProbeContains pass had run
// first: FilterProbed selected lanes probed the filter, Filtered of
// them were pruned, and the result's Probed/TagHits/TagMisses cover
// only the survivors.
func (p *ProbePipeline) BeginFused(t *Table, keys []int64, sel []bool, res *ProbeResult,
	fbits []uint64, fshift uint, pass []bool) {
	p.t, p.keys, p.sel, p.res = t, keys, sel, res
	p.fbits, p.fshift, p.pass = fbits, fshift, pass
	p.tally = tally{}
	res.grow(len(keys))
	res.Rows = res.Rows[:0]
	res.Offsets[0] = 0
}

// NumBlocks returns the number of ProbeBlock-lane blocks to drive.
func (p *ProbePipeline) NumBlocks() int {
	return (len(p.keys) + ProbeBlock - 1) / ProbeBlock
}

func (p *ProbePipeline) blockBounds(b int) (lo, hi int) {
	lo = b * ProbeBlock
	return lo, min(lo+ProbeBlock, len(p.keys))
}

// Stage1 hashes, tag-filters and prefetches block b.
func (p *ProbePipeline) Stage1(b int) {
	lo, hi := p.blockBounds(b)
	p.t.stage1(&p.blk, p.keys[lo:hi], lanes(p.sel, lo, hi),
		p.fbits, p.fshift, lanes(p.pass, lo, hi), &p.tally)
}

// Stage2 verifies block b's runs and gathers its matches. Blocks must
// be driven in ascending order.
func (p *ProbePipeline) Stage2(b int) {
	lo, hi := p.blockBounds(b)
	res := p.res
	p.t.stage2(&p.blk, p.keys[lo:hi], unbounded,
		res.Counts[lo:hi], res.Offsets[lo:hi+1], &res.Rows)
}

// End finalizes the result counters. FilterProbed/Filtered remain
// readable on the pipeline for the fused filter's accounting.
func (p *ProbePipeline) End() {
	st := p.tally.stats()
	p.res.Probed, p.res.TagHits, p.res.TagMisses = st.Probed, st.TagHits, st.TagMisses
}

// FilterProbed returns the fused filter's probe count (selected lanes;
// 0 for an unfused pipeline).
func (p *ProbePipeline) FilterProbed() int {
	if p.fbits == nil {
		return 0
	}
	return p.tally.selected
}

// Filtered returns how many fused-filter probes were pruned before
// reaching the table.
func (p *ProbePipeline) Filtered() int { return p.tally.filtered }
