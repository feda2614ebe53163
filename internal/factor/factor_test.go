package factor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"m2mjoin/internal/plan"
)

// buildFig8 reconstructs the shape of the paper's Fig. 8 chunk:
// driver rows joined with one child that has per-row counts.
func buildSimpleChunk() *Chunk {
	c := NewChunk([]int32{0, 1, 2})
	// Join with node 1: row 0 -> 2 matches, row 1 -> 0, row 2 -> 1.
	c.AddJoin(plan.Root, 1, []int32{2, 0, 1}, []int32{10, 11, 12})
	return c
}

func TestAddJoinBasics(t *testing.T) {
	c := buildSimpleChunk()
	n := c.Node(1)
	if n == nil {
		t.Fatal("node 1 missing")
	}
	if len(n.Rows) != 3 {
		t.Fatalf("rows = %v", n.Rows)
	}
	lo, hi := n.Segment(0)
	if lo != 0 || hi != 2 {
		t.Errorf("segment(0) = [%d,%d)", lo, hi)
	}
	lo, hi = n.Segment(2)
	if lo != 2 || hi != 3 {
		t.Errorf("segment(2) = [%d,%d)", lo, hi)
	}
	// Driver row 1 had zero matches: killed.
	d := c.Driver()
	if d.Live[1] {
		t.Errorf("driver row 1 should be dead")
	}
	if d.LiveCount != 2 {
		t.Errorf("driver live count = %d", d.LiveCount)
	}
}

func TestExpandDepthFirst(t *testing.T) {
	c := buildSimpleChunk()
	var tuples [][]int32
	count, _ := c.Expand(nil, func(rows []int32, _ uint64) {
		cp := append([]int32(nil), rows...)
		tuples = append(tuples, cp)
	})
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	want := [][]int32{{0, 10}, {0, 11}, {2, 12}}
	for i, w := range want {
		if tuples[i][0] != w[0] || tuples[i][1] != w[1] {
			t.Errorf("tuple %d = %v, want %v", i, tuples[i], w)
		}
	}
}

func TestCountOutputMatchesExpand(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 100; trial++ {
		// Random factor chunk over a random join tree.
		tr := plan.RandomTree(2+rng.Intn(5), rng, plan.UniformStats(rng, 0.3, 1, 1, 3))
		c := randomChunk(tr, rng)
		expand, _ := c.Expand(nil, nil)
		counted := c.CountOutput()
		if expand != counted {
			t.Fatalf("Expand %d != CountOutput %d", expand, counted)
		}
	}
}

// randomChunk builds a chunk by joining every tree node with random
// counts and random kills.
func randomChunk(tr *plan.Tree, rng *rand.Rand) *Chunk {
	driverRows := make([]int32, 3+rng.Intn(5))
	for i := range driverRows {
		driverRows[i] = int32(i)
	}
	c := NewChunk(driverRows)
	var next int32 = 100
	for _, id := range tr.TopDown() {
		if id == plan.Root {
			continue
		}
		parent := c.Node(tr.Parent(id))
		counts := make([]int32, len(parent.Rows))
		var rows []int32
		for p := range counts {
			if !parent.Live[p] {
				continue // dead parent rows must have zero counts
			}
			counts[p] = int32(rng.Intn(4)) // may be 0 -> kill
			for j := int32(0); j < counts[p]; j++ {
				rows = append(rows, next)
				next++
			}
		}
		c.AddJoin(tr.Parent(id), id, counts, rows)
	}
	// Random extra kills.
	for _, id := range tr.TopDown() {
		n := c.Node(id)
		for i := range n.Rows {
			if n.Live[i] && rng.Float64() < 0.15 {
				c.Kill(n, i)
			}
		}
	}
	return c
}

func TestKillPropagatesUpward(t *testing.T) {
	c := NewChunk([]int32{0})
	c.AddJoin(plan.Root, 1, []int32{2}, []int32{10, 11})
	n := c.Node(1)
	c.Kill(n, 0)
	if !c.Driver().Live[0] {
		t.Fatalf("driver should survive while one child row lives")
	}
	c.Kill(n, 1)
	if c.Driver().Live[0] {
		t.Fatalf("driver should die when all child rows die")
	}
}

func TestKillPropagatesDownward(t *testing.T) {
	c := NewChunk([]int32{0, 1})
	c.AddJoin(plan.Root, 1, []int32{1, 1}, []int32{10, 11})
	c.AddJoin(1, 2, []int32{2, 1}, []int32{20, 21, 22})
	// Kill driver row 0: its node-1 row and both node-2 rows must die.
	c.Kill(c.Driver(), 0)
	if c.Node(1).Live[0] {
		t.Errorf("node 1 row 0 should be dead")
	}
	if c.Node(2).Live[0] || c.Node(2).Live[1] {
		t.Errorf("node 2 rows under dead driver should be dead")
	}
	if !c.Node(2).Live[2] {
		t.Errorf("node 2 row of live driver should be alive")
	}
	if got, _ := c.Expand(nil, nil); got != 1 {
		t.Errorf("expanded %d tuples, want 1", got)
	}
}

func TestKillAcrossBranches(t *testing.T) {
	// Driver with two branches: killing all rows of one branch kills
	// the driver row, which kills the other branch's rows too.
	c := NewChunk([]int32{0})
	c.AddJoin(plan.Root, 1, []int32{1}, []int32{10})
	c.AddJoin(plan.Root, 2, []int32{2}, []int32{20, 21})
	c.Kill(c.Node(1), 0)
	if c.Driver().Live[0] {
		t.Errorf("driver should die with branch 1")
	}
	if c.Node(2).Live[0] || c.Node(2).Live[1] {
		t.Errorf("branch 2 rows should die when the driver dies")
	}
	if got, _ := c.Expand(nil, nil); got != 0 {
		t.Errorf("expected empty expansion")
	}
}

func TestKillIdempotent(t *testing.T) {
	c := buildSimpleChunk()
	n := c.Node(1)
	c.Kill(n, 0)
	before := n.LiveCount
	c.Kill(n, 0)
	if n.LiveCount != before {
		t.Errorf("double kill changed live count")
	}
}

func TestFactorizedSize(t *testing.T) {
	c := buildSimpleChunk()
	// Driver: 3 rows, 1 dead -> 2 live; node 1: 3 live rows.
	if got := c.FactorizedSize(); got != 5 {
		t.Errorf("FactorizedSize = %d, want 5", got)
	}
}

func TestAddJoinPanics(t *testing.T) {
	c := NewChunk([]int32{0})
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for missing parent")
			}
		}()
		c.AddJoin(5, 6, []int32{1}, []int32{1})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for count mismatch")
			}
		}()
		c.AddJoin(plan.Root, 1, []int32{1, 2}, []int32{1, 2, 3})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for bad row total")
			}
		}()
		c.AddJoin(plan.Root, 1, []int32{2}, []int32{1})
	}()
	c.AddJoin(plan.Root, 1, []int32{1}, []int32{9})
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("expected panic for duplicate join")
			}
		}()
		c.AddJoin(plan.Root, 1, []int32{1}, []int32{9})
	}()
}

func TestOrderTracksJoins(t *testing.T) {
	c := NewChunk([]int32{0})
	c.AddJoin(plan.Root, 2, []int32{1}, []int32{1})
	c.AddJoin(2, 5, []int32{1}, []int32{2})
	o := c.Order()
	if len(o) != 3 || o[0] != plan.Root || o[1] != 2 || o[2] != 5 {
		t.Errorf("Order = %v", o)
	}
}

// TestCompactMatchesUncompacted: compacting the last-joined node after
// random kills changes nothing a caller can observe. Against an
// uncompacted twin built from the same seed, the expansion emits the
// same tuples in the same order with the same sums, the nil-emit count
// and sum, CountOutput and FactorizedSize agree, and a child joined
// under the compacted node propagates its kills exactly as under the
// twin's.
func TestCompactMatchesUncompacted(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		tr := plan.RandomTree(2+rng.Intn(5), rng, plan.UniformStats(rng, 0.3, 1, 1, 3))
		seed := rng.Int63()
		twin := randomChunk(tr, rand.New(rand.NewSource(seed)))
		c := randomChunk(tr, rand.New(rand.NewSource(seed)))
		order := c.Order()
		last := order[len(order)-1]
		for i := range twin.Node(last).Rows {
			if twin.Node(last).Live[i] && rng.Float64() < 0.4 {
				twin.Kill(twin.Node(last), i)
				c.Kill(c.Node(last), i)
			}
		}
		n := c.Node(last)
		n.Compact()
		if len(n.Rows) != n.LiveCount || n.LiveCount != twin.Node(last).LiveCount {
			t.Fatalf("trial %d: compacted %d rows, %d live; twin %d live", trial, len(n.Rows), n.LiveCount, twin.Node(last).LiveCount)
		}
		requireSameChunk(t, trial, "compacted", c, twin)

		// Join a child under the compacted node: the same rows under
		// the same live parent rows, then the same kills.
		tn := twin.Node(last)
		twinCounts := make([]int32, len(tn.Rows))
		counts := make([]int32, 0, len(n.Rows))
		var rows []int32
		for p, live := range tn.Live {
			if live {
				twinCounts[p] = int32(rng.Intn(4))
				counts = append(counts, twinCounts[p])
				for j := int32(0); j < twinCounts[p]; j++ {
					rows = append(rows, int32(1000+len(rows)))
				}
			}
		}
		child := plan.NodeID(tr.Len())
		twin.AddJoin(last, child, twinCounts, rows)
		c.AddJoin(last, child, counts, rows)
		for i := range rows {
			if twin.Node(child).Live[i] && rng.Float64() < 0.3 {
				twin.Kill(twin.Node(child), i)
				c.Kill(c.Node(child), i)
			}
		}
		requireSameChunk(t, trial, "child joined", c, twin)
	}
}

// requireSameChunk fails t unless c and twin hold the same live rows
// per node and expand, count and size alike.
func requireSameChunk(t *testing.T, trial int, label string, c, twin *Chunk) {
	t.Helper()
	for _, id := range twin.Order() {
		got, want := liveRows(c.Node(id)), liveRows(twin.Node(id))
		if !slices.Equal(got, want) || c.Node(id).LiveCount != twin.Node(id).LiveCount {
			t.Fatalf("trial %d %s: node %d live rows %v, twin %v", trial, label, id, got, want)
		}
	}
	if got, want := expandAll(c), expandAll(twin); !slices.Equal(got, want) {
		t.Fatalf("trial %d %s: expansion %v, twin %v", trial, label, got, want)
	}
	gn, gs := c.Expand(toyTerm, nil)
	wn, ws := twin.Expand(toyTerm, nil)
	if gn != wn || gs != ws {
		t.Fatalf("trial %d %s: nil-emit (%d, %#x), twin (%d, %#x)", trial, label, gn, gs, wn, ws)
	}
	if got, want := c.CountOutput(), twin.CountOutput(); got != want {
		t.Fatalf("trial %d %s: CountOutput %d, twin %d", trial, label, got, want)
	}
	if got, want := c.FactorizedSize(), twin.FactorizedSize(); got != want {
		t.Fatalf("trial %d %s: FactorizedSize %d, twin %d", trial, label, got, want)
	}
}

func liveRows(n *Node) []int32 {
	var rows []int32
	for i, live := range n.Live {
		if live {
			rows = append(rows, n.Rows[i])
		}
	}
	return rows
}

// expandAll lists every emitted tuple, as text, with its sum.
func expandAll(c *Chunk) []string {
	var out []string
	c.Expand(toyTerm, func(rows []int32, sum uint64) {
		out = append(out, fmt.Sprint(rows, sum))
	})
	return out
}

func TestCompactPanicsWithChildren(t *testing.T) {
	c := buildSimpleChunk()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic compacting a node with children")
		}
	}()
	c.Driver().Compact()
}
