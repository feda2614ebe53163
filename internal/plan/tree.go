// Package plan models acyclic multi-way join queries as rooted join
// trees, the plan space of left-deep pipelined executions over them, and
// the per-edge statistics (match probability and fanout) that drive the
// cost model of Kalumin & Deshpande (ICDE 2025).
//
// A query over relations R1..Rn with acyclic join graph is represented
// as a tree rooted at the driver relation. Every non-root node carries
// the statistics of the join that connects it to its parent, in the
// probe direction parent -> child:
//
//   - M:  match probability, the probability that a parent tuple finds
//     at least one match in the child (Section 3.1).
//   - Fo: fanout, the average number of matches for a parent tuple that
//     does find a match (Section 3.1).
//
// The classical join selectivity satisfies s = M * Fo.
package plan

import (
	"fmt"
	"strings"
)

// NodeID identifies a relation within a join tree. The driver (root)
// relation always has ID 0; the remaining relations are numbered in the
// order they were attached.
type NodeID int

// Root is the NodeID of the driver relation in every tree.
const Root NodeID = 0

// EdgeStats holds the statistics of a single join operator in the probe
// direction from parent to child.
type EdgeStats struct {
	// M is the match probability in (0, 1]: the probability that a
	// probing tuple finds at least one match.
	M float64
	// Fo is the conditional fanout >= 1: the expected number of matches
	// given that at least one exists.
	Fo float64
}

// Selectivity returns the classical join selectivity s = M * Fo.
func (e EdgeStats) Selectivity() float64 { return e.M * e.Fo }

// Node is one relation in a join tree.
type Node struct {
	ID       NodeID
	Parent   NodeID // Root's parent is Root itself
	Children []NodeID
	Stats    EdgeStats // join stats parent->this; zero value for the root
	Name     string    // optional human-readable relation name
	kids     Set       // Children as a set, kept by AddChild
}

// Tree is a rooted join tree for an acyclic query. The root is the
// driver relation of the left-deep plan. Trees are immutable once
// built through NewTree/AddChild; all optimizer and cost-model code
// treats them as read-only.
type Tree struct {
	nodes []Node
}

// NewTree returns a tree containing only the driver relation.
// If name is empty a default of "R1" is used.
func NewTree(name string) *Tree {
	if name == "" {
		name = "R1"
	}
	return &Tree{nodes: []Node{{ID: Root, Parent: Root, Name: name}}}
}

// AddChild attaches a new relation under parent with the given join
// statistics and returns its NodeID. It panics if parent does not
// exist, if the statistics are out of range, or if the tree already
// holds the 64 relations a Set can describe; join trees are built by
// generators and tests, so malformed input is a programming error.
func (t *Tree) AddChild(parent NodeID, stats EdgeStats, name string) NodeID {
	if int(parent) < 0 || int(parent) >= len(t.nodes) {
		panic(fmt.Sprintf("plan: AddChild: parent %d does not exist", parent))
	}
	if stats.M <= 0 || stats.M > 1 {
		panic(fmt.Sprintf("plan: AddChild: match probability %v out of (0,1]", stats.M))
	}
	if stats.Fo < 1 {
		panic(fmt.Sprintf("plan: AddChild: fanout %v < 1", stats.Fo))
	}
	if len(t.nodes) == maxRelations {
		panic(fmt.Sprintf("plan: AddChild: a tree holds at most %d relations", maxRelations))
	}
	id := NodeID(len(t.nodes))
	if name == "" {
		name = fmt.Sprintf("R%d", id+1)
	}
	t.nodes = append(t.nodes, Node{ID: id, Parent: parent, Stats: stats, Name: name})
	t.nodes[parent].Children = append(t.nodes[parent].Children, id)
	t.nodes[parent].kids = t.nodes[parent].kids.With(id)
	return id
}

// Len returns the number of relations in the tree, including the driver.
func (t *Tree) Len() int { return len(t.nodes) }

// Parent returns the parent of id. The root's parent is the root.
func (t *Tree) Parent(id NodeID) NodeID { return t.nodes[id].Parent }

// Children returns the children of id. The returned slice must not be
// modified.
func (t *Tree) Children(id NodeID) []NodeID { return t.nodes[id].Children }

// Stats returns the parent->id join statistics.
func (t *Tree) Stats(id NodeID) EdgeStats { return t.nodes[id].Stats }

// Name returns the relation name of id.
func (t *Tree) Name(id NodeID) string { return t.nodes[id].Name }

// NonRoot returns the IDs of all non-root relations in ascending order.
func (t *Tree) NonRoot() []NodeID {
	out := make([]NodeID, 0, len(t.nodes)-1)
	for i := 1; i < len(t.nodes); i++ {
		out = append(out, NodeID(i))
	}
	return out
}

// IsLeaf reports whether id has no children.
func (t *Tree) IsLeaf(id NodeID) bool { return len(t.nodes[id].Children) == 0 }

// BottomUp returns all node IDs ordered so that every node appears
// after all of its children (a reverse topological order). The root is
// last. This is the processing order of the semi-join reduction pass.
func (t *Tree) BottomUp() []NodeID {
	order := make([]NodeID, 0, len(t.nodes))
	var visit func(NodeID)
	visit = func(id NodeID) {
		for _, c := range t.nodes[id].Children {
			visit(c)
		}
		order = append(order, id)
	}
	visit(Root)
	return order
}

// TopDown returns all node IDs in pre-order: every node appears before
// its children, root first.
func (t *Tree) TopDown() []NodeID {
	order := make([]NodeID, 0, len(t.nodes))
	var visit func(NodeID)
	visit = func(id NodeID) {
		order = append(order, id)
		for _, c := range t.nodes[id].Children {
			visit(c)
		}
	}
	visit(Root)
	return order
}

// String renders the tree in a compact parenthesized form, e.g.
// "R1(R2(R3,R4),R5(R6))".
func (t *Tree) String() string {
	var b strings.Builder
	var visit func(NodeID)
	visit = func(id NodeID) {
		b.WriteString(t.nodes[id].Name)
		if len(t.nodes[id].Children) > 0 {
			b.WriteByte('(')
			for i, c := range t.nodes[id].Children {
				if i > 0 {
					b.WriteByte(',')
				}
				visit(c)
			}
			b.WriteByte(')')
		}
	}
	visit(Root)
	return b.String()
}

// Order is a permutation of the non-root relations of a tree,
// describing the sequence of join operators in a left-deep plan.
type Order []NodeID

// Valid reports whether o is a valid left-deep join order for t: it
// must contain every non-root node exactly once, and every node must
// appear after its parent (precedence constraints that rule out
// cartesian products).
func (o Order) Valid(t *Tree) bool {
	if len(o) != t.Len()-1 {
		return false
	}
	seen := SetOf(Root)
	for _, id := range o {
		if int(id) <= 0 || int(id) >= t.Len() || seen.Has(id) || !seen.Has(t.Parent(id)) {
			return false
		}
		seen = seen.With(id)
	}
	return true
}

// String renders the order as "R2 -> R3 -> ...".
func (o Order) String() string {
	parts := make([]string, len(o))
	for i, id := range o {
		parts[i] = fmt.Sprintf("R%d", id+1)
	}
	return strings.Join(parts, " -> ")
}

// Frontier returns the relations eligible to be joined next given the
// joined prefix done (which must contain Root): those not yet joined
// whose parent is.
func (t *Tree) Frontier(done Set) Set {
	var kids Set
	for id := range done.All() {
		kids |= t.nodes[id].kids
	}
	return kids &^ done
}

// AllOrders enumerates every valid left-deep join order of t. It is
// exponential and intended for tests and exhaustive baselines on small
// trees; it panics for trees with more than 12 relations.
func (t *Tree) AllOrders() []Order {
	if t.Len() > 12 {
		panic("plan: AllOrders limited to trees with at most 12 relations")
	}
	var cur Order
	var out []Order
	var rec func(done Set)
	rec = func(done Set) {
		if len(cur) == t.Len()-1 {
			out = append(out, append(Order(nil), cur...))
			return
		}
		for id := range t.Frontier(done).All() {
			cur = append(cur, id)
			rec(done.With(id))
			cur = cur[:len(cur)-1]
		}
	}
	rec(SetOf(Root))
	return out
}
