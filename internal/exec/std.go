package exec

import (
	"m2mjoin/internal/buf"
	"m2mjoin/internal/plan"
)

// This file implements the STD pipeline (and its BVP/SJ variants):
// every join fully materializes the flat intermediate result before
// the next join runs, so each intermediate tuple probes every
// subsequent operator — including the redundant probes on ancestor
// attributes that the paper's cost model charges it for.
//
// The flat intermediate is held as one column of base-relation row
// indices per joined relation in the worker's ping-pong column sets
// (join-order layout, column 0 is the driver); each join reads one set
// and writes the other, so steady-state execution reuses the same
// backing arrays for every chunk. The driver rows get the filter pass
// (filterRows, exec.go) before the first join. A join step is the table
// probe (probeJoin) over every lane, then the filter pass over the
// joined relation's matches, in place in the worker's probe result,
// carrying each match's input lane; the expansion gathers every earlier
// column through the kept lanes, so a tuple the filters drop is never
// materialized. COM's steps run the same two helpers.

// runSTDChunk executes the standard pipeline for one driver chunk.
func (w *worker) runSTDChunk(driverRows []int32) {
	r := w.r
	cur, spare := w.colsA, w.colsB
	cur[0] = append(cur[0][:0], driverRows...)
	cur[0] = cur[0][:w.filterRows(plan.Root, cur[0], nil)]
	width := 1
	for _, next := range r.opts.Order {
		if len(cur[0]) == 0 {
			break
		}
		res := w.probeJoin(next, cur[r.layoutPos[r.ds.Tree.Parent(next)]], nil)
		w.intermediateTuples += int64(len(res.Rows))
		// lanes[j] is the input lane match j extends.
		w.lanes = buf.Grow(w.lanes, len(res.Rows))
		lanes := w.lanes
		for i := range cur[0] {
			for j := res.Offsets[i]; j < res.Offsets[i+1]; j++ {
				lanes[j] = int32(i)
			}
		}
		k := w.filterRows(next, res.Rows, lanes)
		lanes = lanes[:k]
		for c := 0; c < width; c++ {
			col, from := buf.Grow(spare[c], k), cur[c]
			for j, lane := range lanes {
				col[j] = from[lane]
			}
			spare[c] = col
		}
		spare[width] = append(spare[width][:0], res.Rows[:k]...)
		cur, spare = spare, cur
		width++
	}
	w.colsA, w.colsB = cur, spare // keep grown buffers for the next chunk
	if len(cur[0]) == 0 || width != r.ds.Tree.Len() {
		return
	}
	// Output tuples are gathered straight into the canonical layout and
	// hashed whole.
	tuple := w.tupleBuf[:width]
	for i := range cur[0] {
		for c, p := range r.canonical {
			tuple[p] = cur[c][i]
		}
		if w.keep(tuple) {
			w.checksum += checksumCanonical(tuple)
			w.outputTuples++
		}
	}
}
