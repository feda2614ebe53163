package plan

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// runningExample builds the 6-relation query of Fig. 1: R1 joins R2 and
// R5; R2 joins R3 and R4; R5 joins R6.
func runningExample() (*Tree, map[string]NodeID) {
	t := NewTree("R1")
	ids := map[string]NodeID{"R1": Root}
	ids["R2"] = t.AddChild(Root, EdgeStats{M: 0.5, Fo: 3}, "R2")
	ids["R3"] = t.AddChild(ids["R2"], EdgeStats{M: 0.4, Fo: 2}, "R3")
	ids["R4"] = t.AddChild(ids["R2"], EdgeStats{M: 0.6, Fo: 2}, "R4")
	ids["R5"] = t.AddChild(Root, EdgeStats{M: 0.7, Fo: 2}, "R5")
	ids["R6"] = t.AddChild(ids["R5"], EdgeStats{M: 0.8, Fo: 3}, "R6")
	return t, ids
}

// depth is the number of edges from the root to id.
func depth(tr *Tree, id NodeID) int {
	d := 0
	for ; id != Root; id = tr.Parent(id) {
		d++
	}
	return d
}

func TestTreeBasics(t *testing.T) {
	tr, ids := runningExample()
	if got := tr.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6", got)
	}
	if tr.Parent(ids["R3"]) != ids["R2"] {
		t.Errorf("parent of R3 = %v, want R2", tr.Parent(ids["R3"]))
	}
	if tr.Parent(Root) != Root {
		t.Errorf("root's parent should be itself")
	}
	if !tr.IsLeaf(ids["R3"]) || tr.IsLeaf(ids["R2"]) {
		t.Errorf("leaf detection wrong")
	}
	if d := depth(tr, ids["R6"]); d != 2 {
		t.Errorf("depth(R6) = %d, want 2", d)
	}
	if d := depth(tr, Root); d != 0 {
		t.Errorf("depth(root) = %d, want 0", d)
	}
	want := "R1(R2(R3,R4),R5(R6))"
	if s := tr.String(); s != want {
		t.Errorf("String = %q, want %q", s, want)
	}
}

func TestBottomUpOrder(t *testing.T) {
	tr, _ := runningExample()
	order := tr.BottomUp()
	if len(order) != tr.Len() {
		t.Fatalf("BottomUp returned %d nodes, want %d", len(order), tr.Len())
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		for _, c := range tr.Children(id) {
			if pos[c] > pos[id] {
				t.Errorf("child %d appears after parent %d in BottomUp", c, id)
			}
		}
	}
	if order[len(order)-1] != Root {
		t.Errorf("BottomUp should end at the root")
	}
}

func TestTopDownOrder(t *testing.T) {
	tr, _ := runningExample()
	order := tr.TopDown()
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, id := range order {
		for _, c := range tr.Children(id) {
			if pos[c] < pos[id] {
				t.Errorf("child %d appears before parent %d in TopDown", c, id)
			}
		}
	}
	if order[0] != Root {
		t.Errorf("TopDown should start at the root")
	}
}

func TestOrderValid(t *testing.T) {
	tr, ids := runningExample()
	valid := Order{ids["R2"], ids["R3"], ids["R5"], ids["R4"], ids["R6"]}
	if !valid.Valid(tr) {
		t.Errorf("order %v should be valid", valid)
	}
	// R3 before its parent R2: cartesian product, invalid.
	invalid := Order{ids["R3"], ids["R2"], ids["R5"], ids["R4"], ids["R6"]}
	if invalid.Valid(tr) {
		t.Errorf("order %v should be invalid", invalid)
	}
	// Duplicate node.
	dup := Order{ids["R2"], ids["R2"], ids["R5"], ids["R4"], ids["R6"]}
	if dup.Valid(tr) {
		t.Errorf("order with duplicates should be invalid")
	}
	// Too short.
	short := Order{ids["R2"]}
	if short.Valid(tr) {
		t.Errorf("short order should be invalid")
	}
}

func TestFrontier(t *testing.T) {
	tr, ids := runningExample()
	done := SetOf(Root)
	f := tr.Frontier(done).IDs()
	if len(f) != 2 || f[0] != ids["R2"] || f[1] != ids["R5"] {
		t.Errorf("initial frontier = %v, want [R2 R5]", f)
	}
	done = done.With(ids["R2"])
	f = tr.Frontier(done).IDs()
	want := map[NodeID]bool{ids["R3"]: true, ids["R4"]: true, ids["R5"]: true}
	if len(f) != 3 {
		t.Fatalf("frontier after R2 = %v", f)
	}
	for _, id := range f {
		if !want[id] {
			t.Errorf("unexpected frontier node %d", id)
		}
	}
}

func TestAllOrdersValidAndComplete(t *testing.T) {
	tr, _ := runningExample()
	orders := tr.AllOrders()
	// Count must match the number of linear extensions of the forest.
	// For this tree: 5 joins; known count by direct reasoning is the
	// number of interleavings respecting R2<R3, R2<R4, R5<R6:
	// total = 5! / (arrangements) -- verified by validity check below
	// plus uniqueness.
	seen := make(map[string]bool)
	for _, o := range orders {
		if !o.Valid(tr) {
			t.Errorf("AllOrders produced invalid order %v", o)
		}
		if seen[o.String()] {
			t.Errorf("duplicate order %v", o)
		}
		seen[o.String()] = true
	}
	// Linear extensions of the precedence poset {2<3, 2<4, 5<6}:
	// brute-force check that the count equals all permutations of
	// {2,3,4,5,6} satisfying the constraints = 5!*(valid fraction).
	count := 0
	perm := []NodeID{1, 2, 3, 4, 5}
	var permute func(int)
	permute = func(i int) {
		if i == len(perm) {
			if Order(perm).Valid(tr) {
				count++
			}
			return
		}
		for j := i; j < len(perm); j++ {
			perm[i], perm[j] = perm[j], perm[i]
			permute(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
	}
	permute(0)
	if len(orders) != count {
		t.Errorf("AllOrders found %d orders, brute force found %d", len(orders), count)
	}
}

func TestStarShape(t *testing.T) {
	tr := Star(7, FixedStats(0.5, 2))
	if tr.Len() != 8 {
		t.Fatalf("Star(7) has %d relations, want 8", tr.Len())
	}
	if len(tr.Children(Root)) != 7 {
		t.Errorf("driver should have 7 children")
	}
	for _, id := range tr.NonRoot() {
		if !tr.IsLeaf(id) {
			t.Errorf("star dimension %d should be a leaf", id)
		}
	}
}

func TestPathShape(t *testing.T) {
	tr := Path(11, FixedStats(0.5, 2))
	if tr.Len() != 11 {
		t.Fatalf("Path(11) has %d relations", tr.Len())
	}
	// Exactly one leaf chain: every node except the last has 1 child.
	leaves := 0
	for _, id := range append([]NodeID{Root}, tr.NonRoot()...) {
		switch len(tr.Children(id)) {
		case 0:
			leaves++
		case 1:
		default:
			t.Errorf("path node %d has %d children", id, len(tr.Children(id)))
		}
	}
	if leaves != 1 {
		t.Errorf("path should have exactly 1 leaf, got %d", leaves)
	}
}

func TestCenteredPathShape(t *testing.T) {
	tr := CenteredPath(11, FixedStats(0.5, 2))
	if tr.Len() != 11 {
		t.Fatalf("CenteredPath(11) has %d relations", tr.Len())
	}
	if len(tr.Children(Root)) != 2 {
		t.Errorf("centered path driver should have 2 chains, got %d", len(tr.Children(Root)))
	}
	// Max depth should be about n/2.
	maxDepth := 0
	for _, id := range tr.NonRoot() {
		if d := depth(tr, id); d > maxDepth {
			maxDepth = d
		}
	}
	if maxDepth != 5 {
		t.Errorf("centered path max depth = %d, want 5", maxDepth)
	}
}

func TestSnowflakeShape(t *testing.T) {
	for _, tc := range []struct{ k, j, n int }{{3, 2, 10}, {5, 1, 11}} {
		tr := Snowflake(tc.k, tc.j, FixedStats(0.5, 2))
		if tr.Len() != tc.n {
			t.Errorf("Snowflake(%d,%d) has %d relations, want %d", tc.k, tc.j, tr.Len(), tc.n)
		}
		if len(tr.Children(Root)) != tc.k {
			t.Errorf("Snowflake(%d,%d) driver has %d children", tc.k, tc.j, len(tr.Children(Root)))
		}
		for _, mid := range tr.Children(Root) {
			if len(tr.Children(mid)) != tc.j {
				t.Errorf("Snowflake(%d,%d) middle node has %d children", tc.k, tc.j, len(tr.Children(mid)))
			}
		}
	}
}

// TestShapeByName pins the names the CLIs and the registration API
// share to the shapes they have always meant.
func TestShapeByName(t *testing.T) {
	for _, tc := range []struct {
		name                string
		relations, fromRoot int
	}{{"star", 7, 6}, {"path", 7, 2}, {"snowflake32", 10, 3}, {"snowflake51", 11, 5}} {
		tr, err := ShapeByName(tc.name, FixedStats(0.5, 2))
		if err != nil {
			t.Fatal(err)
		}
		if tr.Len() != tc.relations || len(tr.Children(Root)) != tc.fromRoot {
			t.Errorf("%s: %d relations, %d under the driver; want %d and %d",
				tc.name, tr.Len(), len(tr.Children(Root)), tc.relations, tc.fromRoot)
		}
	}
	if _, err := ShapeByName("dodecahedron", FixedStats(0.5, 2)); err == nil {
		t.Error("unknown shape accepted")
	}
}

func TestRandomTreeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	src := UniformStats(rng, 0.1, 0.9, 1, 10)
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(19)
		tr := RandomTree(n, rng, src)
		if tr.Len() != n {
			t.Fatalf("RandomTree(%d) has %d relations", n, tr.Len())
		}
		for _, id := range tr.NonRoot() {
			st := tr.Stats(id)
			if st.M <= 0 || st.M > 1 || st.Fo < 1 {
				t.Fatalf("RandomTree stats out of range: %+v", st)
			}
			if tr.Parent(id) >= id {
				t.Fatalf("parent %d >= child %d", tr.Parent(id), id)
			}
		}
	}
}

func TestRebuildPreservesStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := RandomTree(12, rng, UniformStats(rng, 0.1, 0.9, 1, 10))
	re := Rebuild(tr, func(id NodeID, old EdgeStats) EdgeStats {
		return EdgeStats{M: old.M / 2, Fo: old.Fo + 1}
	})
	if re.Len() != tr.Len() {
		t.Fatalf("Rebuild changed size")
	}
	for _, id := range tr.NonRoot() {
		if re.Parent(id) != tr.Parent(id) {
			t.Errorf("Rebuild changed parent of %d", id)
		}
		if re.Stats(id).M != tr.Stats(id).M/2 {
			t.Errorf("Rebuild did not apply stats function to %d", id)
		}
		if re.Name(id) != tr.Name(id) {
			t.Errorf("Rebuild changed name of %d", id)
		}
	}
}

func TestAddChildPanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func(*Tree)
	}{
		{"bad parent", func(tr *Tree) { tr.AddChild(99, EdgeStats{M: 0.5, Fo: 1}, "") }},
		{"zero m", func(tr *Tree) { tr.AddChild(Root, EdgeStats{M: 0, Fo: 1}, "") }},
		{"m > 1", func(tr *Tree) { tr.AddChild(Root, EdgeStats{M: 1.5, Fo: 1}, "") }},
		{"fo < 1", func(tr *Tree) { tr.AddChild(Root, EdgeStats{M: 0.5, Fo: 0.5}, "") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic")
				}
			}()
			tc.fn(NewTree(""))
		})
	}
}

// Property: for any randomly generated tree, every order produced by
// enumerating via Frontier-based recursion is valid, and precedence
// holds along every order prefix.
func TestQuickRandomTreeFrontierConsistency(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := 2 + int(sz%8)
		rng := rand.New(rand.NewSource(seed))
		tr := RandomTree(n, rng, UniformStats(rng, 0.2, 0.8, 1, 5))
		// Greedily take the first frontier node each time; result must
		// be a valid order.
		done := SetOf(Root)
		var o Order
		for len(o) < n-1 {
			f := tr.Frontier(done).IDs()
			if len(f) == 0 {
				return false
			}
			o = append(o, f[0])
			done = done.With(f[0])
		}
		return o.Valid(tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSelectivity(t *testing.T) {
	st := EdgeStats{M: 0.25, Fo: 8}
	if got := st.Selectivity(); got != 2 {
		t.Errorf("Selectivity = %v, want 2", got)
	}
}
