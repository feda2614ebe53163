package exec

import "m2mjoin/internal/plan"

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
// backing arrays for every chunk. A join step runs two helpers
// (exec.go): one filter pass over the column of the relation joined
// last (filterPass), then the table probe behind its survivor mask
// (probeJoin), which COM's steps share. Pruned lanes stay in place
// carrying a false selection bit, and the join expansion drops them for
// free (their match count is zero).

// runSTDChunk executes the standard pipeline for one driver chunk.
func (w *worker) runSTDChunk(driverRows []int32) {
	r := w.r
	cur, spare := w.colsA, w.colsB
	cur[0] = append(cur[0][:0], driverRows...)
	width := 1
	// at is the relation whose children's filters apply before the next
	// join: the root before the first join, then each newly materialized
	// relation. (The last relation in a valid order is a leaf, so no
	// trailing filter pass is ever owed.)
	at := plan.Root
	for _, next := range r.opts.Order {
		n := len(cur[0])
		sel := w.filterPass(at, cur[r.layoutPos[at]], nil)
		res := w.probeJoin(next, cur[r.layoutPos[r.ds.Tree.Parent(next)]], sel)

		for c := 0; c < width; c++ {
			col := spare[c][:0]
			curCol := cur[c]
			for i := 0; i < n; i++ {
				v := curCol[i]
				for k := res.Offsets[i]; k < res.Offsets[i+1]; k++ {
					col = append(col, v)
				}
			}
			spare[c] = col
		}
		spare[width] = append(spare[width][:0], res.Rows...)
		w.intermediateTuples += int64(len(res.Rows))

		cur, spare = spare, cur
		width++
		at = next
		if len(cur[0]) == 0 {
			break
		}
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
