package plan

import (
	"fmt"
	"math/rand"
)

// StatsSource produces join statistics for newly created edges. It lets
// the shape constructors be reused with fixed, ranged, or recorded
// statistics.
type StatsSource func() EdgeStats

// FixedStats returns a StatsSource that always yields the same stats.
func FixedStats(m, fo float64) StatsSource {
	return func() EdgeStats { return EdgeStats{M: m, Fo: fo} }
}

// UniformStats returns a StatsSource drawing M uniformly from
// [mLo, mHi] and Fo uniformly from [foLo, foHi] using rng.
func UniformStats(rng *rand.Rand, mLo, mHi, foLo, foHi float64) StatsSource {
	return func() EdgeStats {
		return EdgeStats{
			M:  mLo + rng.Float64()*(mHi-mLo),
			Fo: foLo + rng.Float64()*(foHi-foLo),
		}
	}
}

// Star builds a star query: the driver joins directly with n dimension
// relations. Star queries are the trivial special case for which the
// ASI property holds fully (Section 3.4).
func Star(n int, src StatsSource) *Tree {
	t := NewTree("")
	for i := 0; i < n; i++ {
		t.AddChild(Root, src(), "")
	}
	return t
}

// Path builds a path query of n relations total: the driver is one end
// of a chain R1 - R2 - ... - Rn. The paper's 11-relation path query
// uses the center relation as driver; see CenteredPath.
func Path(n int, src StatsSource) *Tree {
	if n < 1 {
		panic("plan: Path requires n >= 1")
	}
	t := NewTree("")
	prev := Root
	for i := 1; i < n; i++ {
		prev = t.AddChild(prev, src(), "")
	}
	return t
}

// CenteredPath builds a path query of n relations with the center
// relation as the driver, so the driver has two chains of length
// (n-1)/2 and n/2 hanging off it. This matches the 11-relation path
// query of Section 5.2.
func CenteredPath(n int, src StatsSource) *Tree {
	if n < 1 {
		panic("plan: CenteredPath requires n >= 1")
	}
	t := NewTree("")
	left := (n - 1) / 2
	right := n - 1 - left
	prev := Root
	for i := 0; i < left; i++ {
		prev = t.AddChild(prev, src(), "")
	}
	prev = Root
	for i := 0; i < right; i++ {
		prev = t.AddChild(prev, src(), "")
	}
	return t
}

// Snowflake builds a k-j snowflake query: the driver has k children,
// each of which has j children of its own. The paper evaluates the 3-2
// and 5-1 snowflakes (Section 5.2).
func Snowflake(k, j int, src StatsSource) *Tree {
	t := NewTree("")
	for i := 0; i < k; i++ {
		mid := t.AddChild(Root, src(), "")
		for l := 0; l < j; l++ {
			t.AddChild(mid, src(), "")
		}
	}
	return t
}

// ShapeByName builds one of the paper's four evaluation shapes
// (Section 5.2) by the name the CLIs and the service's registration API
// share: "star" (6 dimensions), "path" (7 relations, centered driver),
// "snowflake32" and "snowflake51".
func ShapeByName(name string, src StatsSource) (*Tree, error) {
	switch name {
	case "star":
		return Star(6, src), nil
	case "path":
		return CenteredPath(7, src), nil
	case "snowflake32":
		return Snowflake(3, 2, src), nil
	case "snowflake51":
		return Snowflake(5, 1, src), nil
	}
	return nil, fmt.Errorf("plan: unknown shape %q", name)
}

// RandomTree builds a random join tree with exactly n relations, for
// the optimizer comparison of Section 5.1: the root gets between 2 and
// 5 children and every other node between 0 and 3, subject to hitting
// exactly n nodes. Statistics come from src; structure from rng.
func RandomTree(n int, rng *rand.Rand, src StatsSource) *Tree {
	if n < 2 {
		panic("plan: RandomTree requires n >= 2")
	}
	t := NewTree("")
	// Queue of nodes that may still receive children, with their caps.
	type slot struct {
		id  NodeID
		cap int
	}
	rootCap := 2 + rng.Intn(4) // 2..5
	if rootCap > n-1 {
		rootCap = n - 1
	}
	queue := []slot{{Root, rootCap}}
	remaining := n - 1
	for remaining > 0 {
		if len(queue) == 0 {
			// All caps exhausted before placing n nodes: attach the rest
			// directly under the root to guarantee the size.
			for remaining > 0 {
				t.AddChild(Root, src(), "")
				remaining--
			}
			break
		}
		i := rng.Intn(len(queue))
		s := queue[i]
		id := t.AddChild(s.id, src(), "")
		remaining--
		s.cap--
		if s.cap == 0 {
			queue[i] = queue[len(queue)-1]
			queue = queue[:len(queue)-1]
		} else {
			queue[i] = s
		}
		childCap := rng.Intn(4) // 0..3
		if childCap > 0 {
			queue = append(queue, slot{id, childCap})
		}
	}
	return t
}

// Rebuild returns a structurally identical copy of t whose edge
// statistics are produced by src. Node IDs and names are preserved
// (AddChild always assigns ascending IDs and every parent precedes its
// children in ID order), so join orders are directly comparable across
// the original and rebuilt trees. It is used to perturb statistics for
// the robustness experiments (Fig. 6).
func Rebuild(t *Tree, src func(id NodeID, old EdgeStats) EdgeStats) *Tree {
	out := NewTree(t.Name(Root))
	for i := 1; i < t.Len(); i++ {
		id := NodeID(i)
		got := out.AddChild(t.Parent(id), src(id, t.Stats(id)), t.Name(id))
		if got != id {
			panic(fmt.Sprintf("plan: Rebuild: expected ID %d, got %d", id, got))
		}
	}
	return out
}
