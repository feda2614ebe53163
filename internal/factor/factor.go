// Package factor implements the factorized intermediate result
// representation of the paper's COM execution model (Section 4.2-4.3,
// Fig. 8): per joined relation, a node holding the matching base-table
// rows, a count vector-column aligned one-to-one with the parent
// node's rows, its prefix sum, and a liveness (selection) bitmap.
//
// The representation corresponds to an f-representation rooted at the
// driver relation, working at the level of tuples rather than
// attributes (Section 4.6). Killing a row — because a later join found
// no match — propagates upward (a parent row dies when one of its
// child segments has no survivor) and downward (descendant rows of a
// dead row can never contribute to output), which is what makes probes
// on ancestor attributes "survival probes".
//
// Chunks are designed for reuse: Reset rewinds a chunk to a fresh
// driver batch while recycling every node and buffer it accumulated,
// so a worker that processes thousands of driver chunks allocates only
// while its buffers grow to steady-state size. All inputs passed to
// NewChunk/Reset/AddJoin are copied into chunk-owned storage, so
// callers may hand in reused scratch slices.
package factor

import (
	"fmt"

	"m2mjoin/internal/buf"
	"m2mjoin/internal/plan"
)

// Node is the factorized vector of one relation within a Chunk.
type Node struct {
	ID       plan.NodeID
	Parent   *Node
	Children []*Node

	// Rows are base-relation row indices, grouped by parent row.
	Rows []int32
	// ParentRow[i] is the index (into Parent.Rows) of the parent row
	// that row i was matched for. Nil for the driver node.
	ParentRow []int32
	// Counts[p] is the number of matches for parent row p; Offsets is
	// its exclusive prefix sum (len(Parent.Rows)+1). Nil for the driver.
	Counts  []int32
	Offsets []int32

	// Live marks rows that can still contribute to an output tuple.
	Live      []bool
	LiveCount int

	// weight is CountOutput scratch: output combinations contributed by
	// the subtree rooted at each row.
	weight []int64
}

// Segment returns the half-open row range of node rows belonging to
// parent row p.
func (n *Node) Segment(p int) (int, int) {
	return int(n.Offsets[p]), int(n.Offsets[p+1])
}

// Chunk is the factorized intermediate result for one batch of driver
// tuples.
type Chunk struct {
	nodes []*Node       // indexed by NodeID; nil entries are not joined
	order []plan.NodeID // join order; order[0] is the driver

	// pool recycles retired nodes across Reset calls, keyed by the
	// NodeID they last served: successive chunks have identical
	// structure, so buffers immediately match their role's size.
	pool []*Node

	// Expansion scratch, reused across Expand/ExpandBreadthFirst calls.
	expNodes  []*Node
	parentPos []int
	current   []int32
	baseRows  []int32
	posOf     []int // NodeID -> position in order
	emit      func(rows []int32)
	expCount  int64
}

// NewChunk creates a factorized chunk holding the given driver rows
// (base-relation row indices of the driver batch). The rows are copied
// into chunk-owned storage.
func NewChunk(driverRows []int32) *Chunk {
	c := &Chunk{}
	c.Reset(driverRows)
	return c
}

// Reset rewinds the chunk to a fresh driver batch, recycling all nodes
// and buffers.
func (c *Chunk) Reset(driverRows []int32) {
	for len(c.pool) < len(c.nodes) {
		c.pool = append(c.pool, nil)
	}
	for i, n := range c.nodes {
		if n != nil {
			c.pool[i] = n
			c.nodes[i] = nil
		}
	}
	c.order = c.order[:0]

	n := c.newNode(plan.Root, nil)
	n.Rows = buf.Copy(n.Rows, driverRows)
	n.Live = buf.Grow(n.Live, len(driverRows))
	for i := range n.Live {
		n.Live[i] = true
	}
	n.LiveCount = len(driverRows)
	c.setNode(plan.Root, n)
}

// newNode takes the node that last served id from the pool (or
// allocates one) and resets its linkage; data slices keep their
// capacity for reuse.
func (c *Chunk) newNode(id plan.NodeID, parent *Node) *Node {
	var n *Node
	if int(id) < len(c.pool) && c.pool[id] != nil {
		n = c.pool[id]
		c.pool[id] = nil
	} else {
		n = &Node{}
	}
	n.ID = id
	n.Parent = parent
	n.Children = n.Children[:0]
	n.ParentRow = n.ParentRow[:0]
	n.Counts = n.Counts[:0]
	n.Offsets = n.Offsets[:0]
	n.LiveCount = 0
	return n
}

// setNode registers n under id, growing the dense node table on demand
// (NodeIDs need not be contiguous in hand-built chunks).
func (c *Chunk) setNode(id plan.NodeID, n *Node) {
	for int(id) >= len(c.nodes) {
		c.nodes = append(c.nodes, nil)
	}
	c.nodes[id] = n
	c.order = append(c.order, id)
}

// Node returns the factor node for relation id; nil if not joined yet.
func (c *Chunk) Node(id plan.NodeID) *Node {
	if int(id) < 0 || int(id) >= len(c.nodes) {
		return nil
	}
	return c.nodes[id]
}

// Driver returns the driver node.
func (c *Chunk) Driver() *Node { return c.nodes[plan.Root] }

// Order returns the relations in join order (driver first). The
// returned slice must not be modified.
func (c *Chunk) Order() []plan.NodeID { return c.order }

// AddJoin appends the result of joining parent relation parentID with
// relation id: counts[p] matches for each parent row p (aligned with
// the parent node's Rows), and rows holding the concatenated matching
// base rows. Both slices are copied, so the caller may reuse them.
// Parent rows with zero matches are killed, propagating in both
// directions. Dead parent rows must have been skipped during the
// probe, i.e. counts[p] must be 0 wherever the parent row is dead.
func (c *Chunk) AddJoin(parentID, id plan.NodeID, counts, rows []int32) *Node {
	parent := c.Node(parentID)
	if parent == nil {
		panic(fmt.Sprintf("factor: AddJoin: parent %d not in chunk", parentID))
	}
	if len(counts) != len(parent.Rows) {
		panic(fmt.Sprintf("factor: AddJoin: %d counts for %d parent rows", len(counts), len(parent.Rows)))
	}
	if c.Node(id) != nil {
		panic(fmt.Sprintf("factor: AddJoin: relation %d already joined", id))
	}
	n := c.newNode(id, parent)
	n.Rows = buf.Copy(n.Rows, rows)
	n.ParentRow = buf.Grow(n.ParentRow, len(rows))
	n.Counts = buf.Copy(n.Counts, counts)
	n.Offsets = buf.Grow(n.Offsets, len(counts)+1)
	n.Live = buf.Grow(n.Live, len(rows))
	n.LiveCount = len(rows)
	var off int32
	for p, cnt := range n.Counts {
		n.Offsets[p] = off
		for j := off; j < off+cnt; j++ {
			n.ParentRow[j] = int32(p)
			n.Live[j] = true
		}
		off += cnt
	}
	n.Offsets[len(counts)] = off
	if int(off) != len(rows) {
		panic(fmt.Sprintf("factor: AddJoin: counts sum %d != rows %d", off, len(rows)))
	}
	parent.Children = append(parent.Children, n)
	c.setNode(id, n)

	// A live parent row with no matches dies now.
	for p := range n.Counts {
		if n.Counts[p] == 0 && parent.Live[p] {
			c.Kill(parent, p)
		}
	}
	return n
}

// Kill marks row i of node n dead and propagates: downward, every
// descendant row under i dies; upward, the parent row dies if i was
// its last live row in n.
func (c *Chunk) Kill(n *Node, i int) {
	if !n.Live[i] {
		return
	}
	n.Live[i] = false
	n.LiveCount--
	for _, child := range n.Children {
		lo, hi := child.Segment(i)
		for j := lo; j < hi; j++ {
			c.Kill(child, j)
		}
	}
	if n.Parent != nil {
		p := int(n.ParentRow[i])
		if n.Parent.Live[p] && !c.anyLiveInSegment(n, p) {
			c.Kill(n.Parent, p)
		}
	}
}

func (c *Chunk) anyLiveInSegment(n *Node, p int) bool {
	lo, hi := n.Segment(p)
	for j := lo; j < hi; j++ {
		if n.Live[j] {
			return true
		}
	}
	return false
}

// FactorizedSize returns the total number of live rows across all
// nodes: the size of the factorized (compressed) output.
func (c *Chunk) FactorizedSize() int {
	total := 0
	for _, id := range c.order {
		total += c.nodes[id].LiveCount
	}
	return total
}

// expandLayout fills the chunk's expansion scratch: nodes in join
// order, each node's parent position, and per-node cursors.
func (c *Chunk) expandLayout() {
	c.expNodes = c.expNodes[:0]
	c.parentPos = c.parentPos[:0]
	for int(maxID(c.order)) >= len(c.posOf) {
		c.posOf = append(c.posOf, 0)
	}
	for i, id := range c.order {
		n := c.nodes[id]
		c.expNodes = append(c.expNodes, n)
		c.posOf[id] = i
		if i > 0 {
			c.parentPos = append(c.parentPos, c.posOf[n.Parent.ID])
		} else {
			c.parentPos = append(c.parentPos, 0)
		}
	}
	c.current = buf.Grow(c.current, len(c.order))
	c.baseRows = buf.Grow(c.baseRows, len(c.order))
}

func maxID(ids []plan.NodeID) plan.NodeID {
	m := plan.Root
	for _, id := range ids {
		if id > m {
			m = id
		}
	}
	return m
}

// Expand enumerates every flat output tuple in depth-first order
// (Section 4.3, Fig. 9) and calls emit with, for each joined relation
// in join order, the base-relation row index selected for that tuple.
// The rows slice is reused across calls; emit must not retain it.
// It returns the number of tuples emitted. The recursion runs through
// chunk methods and scratch fields so repeated expansion allocates
// nothing.
func (c *Chunk) Expand(emit func(rows []int32)) int64 {
	c.expandLayout()
	c.emit = emit
	c.expCount = 0
	c.expandRec(0)
	c.emit = nil
	return c.expCount
}

func (c *Chunk) expandRec(k int) {
	if k == len(c.expNodes) {
		c.expCount++
		if c.emit != nil {
			c.emit(c.baseRows)
		}
		return
	}
	n := c.expNodes[k]
	if k == 0 {
		for i, live := range n.Live {
			if !live {
				continue
			}
			c.current[0] = int32(i)
			c.baseRows[0] = n.Rows[i]
			c.expandRec(1)
		}
		return
	}
	p := int(c.current[c.parentPos[k]])
	lo, hi := n.Segment(p)
	for j := lo; j < hi; j++ {
		if !n.Live[j] {
			continue
		}
		c.current[k] = int32(j)
		c.baseRows[k] = n.Rows[j]
		c.expandRec(k + 1)
	}
}

// CountOutput returns the number of flat output tuples without
// enumerating them: a bottom-up product-sum over the factor tree (the
// sequential "counting" step the paper describes for breadth-first
// expansion).
func (c *Chunk) CountOutput() int64 {
	// weight[row] = number of output combinations contributed by the
	// subtree of the node rooted at row. Reverse join order sees
	// children before parents (a child is always joined after its
	// parent).
	for i := len(c.order) - 1; i >= 0; i-- {
		n := c.nodes[c.order[i]]
		n.weight = buf.Grow(n.weight, len(n.Rows))
		for r := range n.Rows {
			if !n.Live[r] {
				n.weight[r] = 0
				continue
			}
			prod := int64(1)
			for _, child := range n.Children {
				lo, hi := child.Segment(r)
				var sum int64
				for j := lo; j < hi; j++ {
					sum += child.weight[j]
				}
				prod *= sum
			}
			n.weight[r] = prod
		}
	}
	var total int64
	for _, v := range c.Driver().weight {
		total += v
	}
	return total
}
