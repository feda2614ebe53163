package factor

import (
	"math/rand"
	"testing"

	"m2mjoin/internal/plan"
)

// tupleSetHash builds an order-independent fingerprint of an emitted
// tuple stream.
func tupleSetHash(expand func(func([]int32)) int64) (int64, uint64) {
	var sum uint64
	count := expand(func(rows []int32) {
		var h uint64 = 1469598103934665603
		for _, r := range rows {
			h = h*1099511628211 + uint64(r) + 0x9e3779b9
		}
		sum += h
	})
	return count, sum
}

// TestBFSMatchesDFS: breadth-first expansion must produce exactly the
// depth-first tuple multiset on random chunks.
func TestBFSMatchesDFS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		tr := plan.RandomTree(2+rng.Intn(5), rng, plan.UniformStats(rng, 0.3, 1, 1, 3))
		c := randomChunk(tr, rng)
		dfsCount, dfsSum := tupleSetHash(c.Expand)
		bfsCount, bfsSum := tupleSetHash(c.ExpandBreadthFirst)
		if dfsCount != bfsCount {
			t.Fatalf("trial %d: DFS %d tuples, BFS %d", trial, dfsCount, bfsCount)
		}
		if dfsSum != bfsSum {
			t.Fatalf("trial %d: tuple sets differ", trial)
		}
	}
}

// TestBFSEmptyChunk: a chunk whose driver died entirely expands to
// nothing.
func TestBFSEmptyChunk(t *testing.T) {
	c := NewChunk([]int32{0})
	c.AddJoin(plan.Root, 1, []int32{0}, nil) // no matches: driver dies
	if got := c.ExpandBreadthFirst(nil); got != 0 {
		t.Errorf("expanded %d tuples from dead chunk", got)
	}
}

// TestBFSNilEmit: counting without a callback.
func TestBFSNilEmit(t *testing.T) {
	c := buildSimpleChunk()
	if got := c.ExpandBreadthFirst(nil); got != 3 {
		t.Errorf("count = %d, want 3", got)
	}
}

func BenchmarkExpandDFSvsBFS(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tr := plan.Snowflake(3, 1, plan.FixedStats(0.9, 3))
	chunks := make([]*Chunk, 8)
	for i := range chunks {
		chunks[i] = randomChunkSized(tr, rng, 256, 3)
	}
	b.Run("DFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chunks[i%len(chunks)].Expand(func([]int32) {})
		}
	})
	b.Run("BFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			chunks[i%len(chunks)].ExpandBreadthFirst(func([]int32) {})
		}
	})
}

// randomChunkSized is randomChunk with a controlled driver size and
// max fanout.
func randomChunkSized(tr *plan.Tree, rng *rand.Rand, driverRows, maxFan int) *Chunk {
	rows := make([]int32, driverRows)
	for i := range rows {
		rows[i] = int32(i)
	}
	c := NewChunk(rows)
	var next int32 = 1000
	for _, id := range tr.TopDown() {
		if id == plan.Root {
			continue
		}
		parent := c.Node(tr.Parent(id))
		counts := make([]int32, len(parent.Rows))
		var matchRows []int32
		for p := range counts {
			if !parent.Live[p] {
				continue
			}
			counts[p] = int32(1 + rng.Intn(maxFan))
			for j := int32(0); j < counts[p]; j++ {
				matchRows = append(matchRows, next)
				next++
			}
		}
		c.AddJoin(tr.Parent(id), id, counts, matchRows)
	}
	return c
}
