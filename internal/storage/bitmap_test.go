package storage

import (
	"math/rand"
	"testing"
)

// boolModel is the naive []bool reference the packed Bitmap is
// property-tested against: every packed operation has an obvious
// one-line meaning on the model.
type boolModel []bool

func newBoolModel(n int, set bool) boolModel {
	m := make(boolModel, n)
	for i := range m {
		m[i] = set
	}
	return m
}

func (m boolModel) count() int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// checkAgainstModel asserts full agreement: Len, Count, every Get, and
// the ForEachSet iteration order.
func checkAgainstModel(t *testing.T, b *Bitmap, m boolModel, ctx string) {
	t.Helper()
	if b.Len() != len(m) {
		t.Fatalf("%s: Len = %d, model %d", ctx, b.Len(), len(m))
	}
	if b.Count() != m.count() {
		t.Fatalf("%s: Count = %d, model %d", ctx, b.Count(), m.count())
	}
	for i := range m {
		if b.Get(i) != m[i] {
			t.Fatalf("%s: Get(%d) = %v, model %v", ctx, i, b.Get(i), m[i])
		}
	}
	var rows []int
	b.ForEachSet(func(row int) { rows = append(rows, row) })
	want := 0
	for i, v := range m {
		if !v {
			continue
		}
		if want >= len(rows) || rows[want] != i {
			t.Fatalf("%s: ForEachSet diverges from model at set row %d (got %v)", ctx, i, rows)
		}
		want++
	}
	if want != len(rows) {
		t.Fatalf("%s: ForEachSet visited %d rows, model has %d", ctx, len(rows), want)
	}
}

// TestBitmapPropertyVsBoolModel drives random op sequences over sizes
// chosen to stress word boundaries (0, 1, 63, 64, 65, ...), mirroring
// every op on the []bool model.
func TestBitmapPropertyVsBoolModel(t *testing.T) {
	sizes := []int{0, 1, 7, 63, 64, 65, 127, 128, 129, 200, 1000}
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(n)*31 + 1))
		b := NewBitmap(n)
		m := newBoolModel(n, true)
		checkAgainstModel(t, b, m, "fresh")

		other := NewEmptyBitmap(n)
		om := newBoolModel(n, false)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				other.Set(i)
				om[i] = true
			}
		}

		for op := 0; op < 300; op++ {
			if n == 0 {
				break
			}
			switch rng.Intn(6) {
			case 0:
				i := rng.Intn(n)
				b.Set(i)
				m[i] = true
			case 1:
				i := rng.Intn(n)
				b.Clear(i)
				m[i] = false
			case 2:
				b.SetAll()
				for i := range m {
					m[i] = true
				}
			case 3:
				b.And(other)
				for i := range m {
					m[i] = m[i] && om[i]
				}
			case 4:
				mod := 2 + rng.Intn(5)
				b.Retain(func(row int) bool { return row%mod != 0 })
				for i := range m {
					if m[i] && i%mod == 0 {
						m[i] = false
					}
				}
			case 5:
				b.Retain(func(int) bool { return false })
				for i := range m {
					m[i] = false
				}
			}
			checkAgainstModel(t, b, m, "after op")
		}
		checkAgainstModel(t, b, m, "final")

		// CopyFrom and Clone replicate the model exactly.
		c := NewEmptyBitmap(0)
		c.CopyFrom(b)
		checkAgainstModel(t, c, m, "CopyFrom")
		checkAgainstModel(t, b.Clone(), m, "Clone")

		// CountRange agrees with the model on word-aligned lows.
		for _, lo := range []int{0, 64, 128} {
			if lo > n {
				continue
			}
			hi := lo + rng.Intn(n-lo+1)
			want := 0
			for i := lo; i < hi; i++ {
				if m[i] {
					want++
				}
			}
			if got := b.CountRange(lo, hi); got != want {
				t.Fatalf("n=%d CountRange(%d,%d) = %d, model %d", n, lo, hi, got, want)
			}
		}
	}
}

// TestBitmapResetReuse: Reset must produce an all-set bitmap of the new
// size regardless of prior state, reusing storage when shrinking.
func TestBitmapResetReuse(t *testing.T) {
	b := NewBitmap(500)
	for i := 0; i < 500; i += 3 {
		b.Clear(i)
	}
	prev := &b.Words()[0]
	b.Reset(100)
	if &b.Words()[0] != prev {
		t.Errorf("Reset to smaller size reallocated")
	}
	checkAgainstModel(t, b, newBoolModel(100, true), "Reset(100)")
	b.Reset(1000)
	checkAgainstModel(t, b, newBoolModel(1000, true), "Reset(1000)")
}

// TestBitmapTailInvariant: ops that write whole words must keep the
// bits beyond Len zero, or Count would see phantom rows.
func TestBitmapTailInvariant(t *testing.T) {
	b := NewBitmap(70) // 6 tail bits in word 1
	b.SetAll()
	if b.Count() != 70 {
		t.Fatalf("SetAll leaked tail bits: Count = %d", b.Count())
	}
	if w := b.Words()[1] >> 6; w != 0 {
		t.Fatalf("tail bits set: %x", w)
	}
}
