package factor

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"m2mjoin/internal/bitvector"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
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

// TestTruncateMatchesPerRowKill: COM's keep-survivors filter pass —
// bitvector.Filter.Retain over a node's rows and ParentRow, then
// Truncate — leaves every node exactly as the per-row pass it replaced
// does: a Kill per filtered row, then compactRef. On random trees with
// random fan-outs the root is filtered first, then every node is
// joined in top-down order and filtered right after, by 1–3 random
// bitvectors, so parent rows die under a sibling's filter before a
// later child joins. After each step every node's Rows, ParentRow,
// Counts, Offsets, Live and LiveCount agree between the two chunks, and
// every AddJoin returns an all-live node. A third chunk that only kills
// holds the same live rows at the end and expands, counts and sizes
// alike, so dropping the rows is unobservable.
func TestTruncateMatchesPerRowKill(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		tr := plan.RandomTree(2+rng.Intn(5), rng, plan.UniformStats(rng, 0.3, 1, 1, 3))
		driver := make([]int32, 1+rng.Intn(24))
		for i := range driver {
			driver[i] = int32(i)
		}
		c, ref, raw := NewChunk(driver), NewChunk(driver), NewChunk(driver)
		next := int32(len(driver)) // row values are unique across the chunk
		for _, id := range tr.TopDown() {
			if id != plan.Root {
				// One fan-out per live parent row value, so each chunk
				// lays out the same join whatever its dead rows.
				fan := map[int32]int32{}
				var rows []int32
				for _, v := range liveRows(ref.Node(tr.Parent(id))) {
					fan[v] = int32(rng.Intn(4))
					for j := int32(0); j < fan[v]; j++ {
						rows = append(rows, next)
						next++
					}
				}
				for _, x := range []*Chunk{c, ref, raw} {
					parent := x.Node(tr.Parent(id))
					counts := make([]int32, len(parent.Rows))
					for p, v := range parent.Rows {
						if parent.Live[p] {
							counts[p] = fan[v]
						}
					}
					if n := x.AddJoin(tr.Parent(id), id, counts, rows); n.LiveCount != len(n.Rows) || slices.Contains(n.Live, false) {
						t.Fatalf("trial %d: AddJoin(%d) returned %d live of %d rows", trial, id, n.LiveCount, len(n.Rows))
					}
				}
			}

			n := c.Node(id)
			var carry []int32
			if n.Parent != nil {
				carry = n.ParentRow
			}
			k := len(n.Rows)
			for range 1 + rng.Intn(3) {
				f, col := randomFilter(rng, int(next))
				k = f.Retain(col, n.Rows[:k], carry)
				for _, x := range []*Chunk{ref, raw} {
					xn := x.Node(id)
					for i, row := range xn.Rows {
						if xn.Live[i] && !f.MayContain(col[row]) {
							x.Kill(xn, i)
						}
					}
				}
			}
			c.Truncate(n, k)
			compactRef(ref.Node(id))
			requireSameNodes(t, trial, id, c, ref)
		}
		requireSameChunk(t, trial, "filtered", c, raw)
	}
}

// randomFilter returns a bitvector over a random subset of a small key
// space and a key column of n rows drawn from it, so a filter passes
// anywhere from few to all rows.
func randomFilter(rng *rand.Rand, n int) (*bitvector.Filter, storage.Column) {
	const keys = 64
	f := bitvector.New(keys, 1+rng.Intn(16))
	pass := rng.Float64()
	for key := range int64(keys) {
		if rng.Float64() < pass {
			f.Add(key)
		}
	}
	col := make(storage.Column, n)
	for i := range col {
		col[i] = rng.Int63n(keys)
	}
	return f, col
}

// compactRef is the per-row pass's compaction: it drops a childless
// node's dead rows in place, keeping the live ones in order, and
// recounts Counts and Offsets against the untouched parent.
func compactRef(n *Node) {
	w := 0
	for i, live := range n.Live {
		if live {
			n.Rows[w] = n.Rows[i]
			if n.Parent != nil {
				n.ParentRow[w] = n.ParentRow[i]
			}
			n.Live[w] = true
			w++
		}
	}
	n.Rows, n.Live = n.Rows[:w], n.Live[:w]
	if n.Parent == nil {
		return
	}
	n.ParentRow = n.ParentRow[:w]
	clear(n.Counts)
	for _, p := range n.ParentRow {
		n.Counts[p]++
	}
	var off int32
	for p, cnt := range n.Counts {
		n.Offsets[p] = off
		off += cnt
	}
	n.Offsets[len(n.Counts)] = off
}

// requireSameNodes fails t unless every node of c holds exactly the
// fields of ref's.
func requireSameNodes(t *testing.T, trial int, step plan.NodeID, c, ref *Chunk) {
	t.Helper()
	for _, id := range ref.Order() {
		g, w := c.Node(id), ref.Node(id)
		if !slices.Equal(g.Rows, w.Rows) || !slices.Equal(g.ParentRow, w.ParentRow) ||
			!slices.Equal(g.Counts, w.Counts) || !slices.Equal(g.Offsets, w.Offsets) ||
			!slices.Equal(g.Live, w.Live) || g.LiveCount != w.LiveCount {
			t.Fatalf("trial %d, after filtering %d: node %d\n got rows %v parents %v counts %v offsets %v live %v (%d)"+
				"\nwant rows %v parents %v counts %v offsets %v live %v (%d)", trial, step, id,
				g.Rows, g.ParentRow, g.Counts, g.Offsets, g.Live, g.LiveCount,
				w.Rows, w.ParentRow, w.Counts, w.Offsets, w.Live, w.LiveCount)
		}
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

// TestTruncatePanics: Truncate refuses a node with children and a node
// with a dead row.
func TestTruncatePanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(c *Chunk) *Node
	}{
		{"children", func(c *Chunk) *Node { return c.Driver() }},
		{"dead row", func(c *Chunk) *Node {
			n := c.Node(1)
			c.Kill(n, 0)
			return n
		}},
	} {
		c := buildSimpleChunk()
		n := tc.at(c)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tc.name)
				}
			}()
			c.Truncate(n, 1)
		}()
	}
}
