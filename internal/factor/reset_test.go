package factor

import (
	"math/rand"
	"testing"

	"m2mjoin/internal/plan"
)

// TestResetReusesChunk: a chunk driven through Reset across many
// random batches must behave exactly like a freshly allocated chunk —
// same expansion, count, and factorized size — while recycling its
// node and buffer storage.
func TestResetReusesChunk(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	reused := NewChunk(nil)
	for trial := 0; trial < 50; trial++ {
		tr := plan.RandomTree(2+rng.Intn(5), rng, plan.UniformStats(rng, 0.3, 1, 1, 3))
		seed := rng.Int63()

		fresh := buildRandom(tr, rand.New(rand.NewSource(seed)), NewChunk(nil))
		cycled := buildRandom(tr, rand.New(rand.NewSource(seed)), reused)

		fc, fs := fresh.Expand(toyTerm, nil)
		cc, cs := cycled.Expand(toyTerm, nil)
		if fc != cc || fs != cs {
			t.Fatalf("trial %d: Expand (%d, %#x) (fresh) != (%d, %#x) (reused)", trial, fc, fs, cc, cs)
		}
		if f, c := fresh.CountOutput(), cycled.CountOutput(); f != c {
			t.Fatalf("trial %d: CountOutput %d != %d", trial, f, c)
		}
		if f, c := fresh.FactorizedSize(), cycled.FactorizedSize(); f != c {
			t.Fatalf("trial %d: FactorizedSize %d != %d", trial, f, c)
		}
	}
}

// buildRandom resets c to a random driver batch and joins every tree
// node with random counts and kills (mirrors randomChunk but through
// an existing chunk).
func buildRandom(tr *plan.Tree, rng *rand.Rand, c *Chunk) *Chunk {
	driverRows := make([]int32, 3+rng.Intn(5))
	for i := range driverRows {
		driverRows[i] = int32(i)
	}
	c.Reset(driverRows)
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
				continue
			}
			counts[p] = int32(rng.Intn(4))
			for j := int32(0); j < counts[p]; j++ {
				rows = append(rows, next)
				next++
			}
		}
		c.AddJoin(tr.Parent(id), id, counts, rows)
	}
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

// TestAddJoinCopiesInputs: AddJoin must copy counts and rows so
// callers can reuse their probe scratch.
func TestAddJoinCopiesInputs(t *testing.T) {
	c := NewChunk([]int32{0, 1})
	counts := []int32{1, 1}
	rows := []int32{10, 11}
	c.AddJoin(plan.Root, 1, counts, rows)
	counts[0], rows[0] = 99, 99 // clobber the caller's scratch
	n := c.Node(1)
	if n.Counts[0] != 1 || n.Rows[0] != 10 {
		t.Errorf("AddJoin aliases caller slices: counts=%v rows=%v", n.Counts, n.Rows)
	}
}

// toyTerm is an arbitrary per-row term for the expansion tests: it
// depends on both the relation and the row, and its sums wrap.
func toyTerm(id plan.NodeID, row int32) uint64 {
	return (uint64(id)+1)*0x9E3779B97F4A7C15 ^ uint64(row)*0xBF58476D1CE4E5B9
}

// TestExpandSumsTerms: the sum Expand passes with each tuple is the
// sum of the term over the rows it emits, on random chunks with kills;
// a nil term passes 0, and both enumerate CountOutput tuples. Expand
// returns the count and the sum of the sums, with or without emit.
func TestExpandSumsTerms(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	c := NewChunk(nil)
	for trial := 0; trial < 200; trial++ {
		tr := plan.RandomTree(2+rng.Intn(6), rng, plan.UniformStats(rng, 0.3, 1, 1, 3))
		buildRandom(tr, rng, c)
		order := c.Order()
		var emitted int64
		var emittedSum uint64
		got, gotSum := c.Expand(toyTerm, func(rows []int32, sum uint64) {
			emitted++
			emittedSum += sum
			var want uint64
			for k, row := range rows {
				want += toyTerm(order[k], row)
			}
			if sum != want {
				t.Fatalf("trial %d: tuple %v sum %#x, want %#x", trial, rows, sum, want)
			}
		})
		if want := c.CountOutput(); got != want || emitted != want {
			t.Fatalf("trial %d: Expand %d (emitted %d), CountOutput %d", trial, got, emitted, want)
		}
		if gotSum != emittedSum {
			t.Fatalf("trial %d: Expand returned sum %#x, emitted sums total %#x", trial, gotSum, emittedSum)
		}
		if n, sum := c.Expand(toyTerm, nil); n != got || sum != emittedSum {
			t.Fatalf("trial %d: nil emit gave (%d, %#x), want (%d, %#x)", trial, n, sum, got, emittedSum)
		}
		c.Expand(nil, func(_ []int32, sum uint64) {
			if sum != 0 {
				t.Fatalf("trial %d: nil term gave sum %#x", trial, sum)
			}
		})
	}
}

// TestExpandAllocationFree: expanding a reused chunk, terms included,
// allocates nothing.
func TestExpandAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := plan.RandomTree(6, rng, plan.UniformStats(rng, 0.3, 1, 1, 3))
	c := buildRandom(tr, rng, NewChunk(nil))
	var total uint64
	emit := func(_ []int32, sum uint64) { total += sum }
	if n, _ := c.Expand(toyTerm, emit); n == 0 { // also grows the scratch
		t.Fatal("random chunk expands to nothing")
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Expand(toyTerm, emit) }); allocs != 0 {
		t.Errorf("Expand allocated %.1f times per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.Expand(toyTerm, nil) }); allocs != 0 {
		t.Errorf("Expand with no emit allocated %.1f times per call, want 0", allocs)
	}
}

// TestTruncateAllocationFree: a reused chunk's cycle of reset,
// truncation of the driver, join, and truncation of the new node to
// survivors kept in place allocates nothing once its buffers have
// grown, the recount's parent kills included.
func TestTruncateAllocationFree(t *testing.T) {
	driver := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	counts := []int32{2, 0, 1, 3, 1, 2} // driver row 1 dies in AddJoin
	rows := []int32{10, 11, 12, 13, 14, 15, 16, 17, 18}
	c := NewChunk(nil)
	cycle := func() {
		c.Reset(driver)
		c.Truncate(c.Driver(), 6)
		n := c.AddJoin(plan.Root, 1, counts, rows)
		// Keep every row but 10, 13 and 16; the last empties driver row 4.
		k := 0
		for i := range n.Rows {
			if i%3 != 0 {
				n.Rows[k], n.ParentRow[k] = n.Rows[i], n.ParentRow[i]
				k++
			}
		}
		c.Truncate(n, k)
	}
	cycle()
	if n, d := c.Node(1), c.Driver(); len(n.Rows) != 6 || n.LiveCount != 6 || len(d.Rows) != 6 || d.LiveCount != 4 {
		t.Fatalf("truncated node holds %d rows, %d live, driver %d, %d live; want 6, 6, 6, 4",
			len(n.Rows), n.LiveCount, len(d.Rows), d.LiveCount)
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("reset, join and truncate allocated %.1f times per cycle, want 0", allocs)
	}
}
