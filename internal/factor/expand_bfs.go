package factor

// This file implements the breadth-first result expansion the paper
// sketches as future work (Section 4.3): instead of walking the factor
// tree depth-first one tuple at a time, a sequential counting step
// first computes how many output tuples each row contributes, and the
// output is then materialized level by level with exact preallocation.
// It trades the DFS version's minimal memory for bulk column-at-a-time
// copying.

// ExpandBreadthFirst enumerates the same flat tuples as Expand but
// level by level. emit receives base-relation row indices in join
// order, exactly as with Expand; the slice is reused across calls. The
// return value is the number of tuples emitted.
func (c *Chunk) ExpandBreadthFirst(emit func(rows []int32)) int64 {
	c.expandLayout()
	nodes, parentPos := c.expNodes, c.parentPos

	// Counting step: total output tuples (for preallocation) computed
	// bottom-up, as the paper's breadth-first variant requires.
	total := c.CountOutput()
	if total == 0 {
		return 0
	}

	// Level-by-level materialization: partial[i] holds, per partial
	// tuple, the chosen row position within node i.
	capHint := int(total)
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	partials := make([][]int32, 1)
	partials[0] = make([]int32, 0, capHint)
	driver := nodes[0]
	for i, live := range driver.Live {
		if live {
			partials[0] = append(partials[0], int32(i))
		}
	}

	for k := 1; k < len(nodes); k++ {
		n := nodes[k]
		prevLen := len(partials[0])
		next := make([][]int32, k+1)
		for col := range next {
			next[col] = make([]int32, 0, prevLen)
		}
		parentCol := partials[parentPos[k]]
		for row := 0; row < prevLen; row++ {
			p := int(parentCol[row])
			lo, hi := n.Segment(p)
			for j := lo; j < hi; j++ {
				if !n.Live[j] {
					continue
				}
				for col := 0; col < k; col++ {
					next[col] = append(next[col], partials[col][row])
				}
				next[k] = append(next[k], int32(j))
			}
		}
		partials = next
		if len(partials[0]) == 0 {
			return 0
		}
	}

	out := make([]int32, len(nodes))
	var count int64
	for row := 0; row < len(partials[0]); row++ {
		for k, n := range nodes {
			out[k] = n.Rows[partials[k][row]]
		}
		count++
		if emit != nil {
			emit(out)
		}
	}
	return count
}
