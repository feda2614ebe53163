package storage

import "math/bits"

// Bitmap is a word-packed per-row liveness mask used by the semi-join
// reduction pass, pushed-down selections and the driver scan. One bit
// per row, 64 rows per uint64 word, mirroring DuckDB-style packed
// selection vectors: liveness tests are single bit probes, combining
// masks is word-wise, counting is popcount, and iterating live rows
// skips dead regions a whole word (64 rows) at a time via
// trailing-zeros scanning.
//
// A nil *Bitmap conventionally means "all rows live" throughout the
// engine, exactly as the old nil []bool mask did.
//
// Invariant: bits at positions >= Len() in the last word are zero, so
// Count and word-wise iteration never see phantom rows.
type Bitmap struct {
	words []uint64
	n     int
}

// wordsFor returns the number of 64-bit words covering n rows.
func wordsFor(n int) int { return (n + 63) / 64 }

// NewBitmap returns a bitmap of n rows, all set.
func NewBitmap(n int) *Bitmap {
	b := NewEmptyBitmap(n)
	b.SetAll()
	return b
}

// NewEmptyBitmap returns a bitmap of n rows, all clear.
func NewEmptyBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, wordsFor(n)), n: n}
}

// Len returns the number of rows the bitmap covers.
func (b *Bitmap) Len() int { return b.n }

// Words exposes the packed words for hot-loop iteration (64 rows per
// word, row i at words[i/64] bit i%64). Callers writing through this
// view must preserve the zero-tail invariant.
func (b *Bitmap) Words() []uint64 { return b.words }

// Get reports whether row i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set marks row i live.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear marks row i dead.
func (b *Bitmap) Clear(i int) {
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Count returns the number of set rows (popcount over the words).
func (b *Bitmap) Count() int {
	if b == nil {
		return 0
	}
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// CountRange returns the number of set rows in [lo, hi). lo must be
// word-aligned (a multiple of 64); hi may be any row <= Len().
func (b *Bitmap) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	n := 0
	loW, hiW := lo>>6, (hi+63)>>6
	for wi := loW; wi < hiW; wi++ {
		w := b.words[wi]
		if wi == hiW-1 && hi&63 != 0 {
			w &= (1 << (uint(hi) & 63)) - 1
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// SetAll sets every row (and re-zeroes the tail bits).
func (b *Bitmap) SetAll() {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	b.clearTail()
}

// clearTail zeroes the bits beyond Len() in the last word.
func (b *Bitmap) clearTail() {
	if b.n&63 != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= (1 << (uint(b.n) & 63)) - 1
	}
}

// Reset resizes the bitmap to n rows, all set, reusing the existing
// word storage when it is large enough — the pooled-scratch entry
// point of the semi-join pass.
func (b *Bitmap) Reset(n int) {
	b.resize(n)
	b.SetAll()
}

// CopyFrom makes b an exact copy of o, resizing (with storage reuse)
// as needed.
func (b *Bitmap) CopyFrom(o *Bitmap) {
	b.resize(o.n)
	copy(b.words, o.words)
}

// resize makes b cover n rows, reusing its word storage when it is
// large enough; the words' contents are left for the caller to set.
func (b *Bitmap) resize(n int) {
	nw := wordsFor(n)
	if cap(b.words) < nw {
		b.words = make([]uint64, nw, nw+nw/4+1)
	}
	b.words = b.words[:nw]
	b.n = n
}

// Clone returns an independent copy of b.
func (b *Bitmap) Clone() *Bitmap { return b.CloneGrown(b.n) }

// CloneGrown returns an independent copy of b extended to n rows
// (n >= Len()), with every added row set — the clone-on-write growth
// step of a dataset commit, where appended rows start live.
func (b *Bitmap) CloneGrown(n int) *Bitmap {
	if n < b.n {
		panic("storage: Bitmap.CloneGrown shrinks the bitmap")
	}
	c := &Bitmap{words: make([]uint64, wordsFor(n)), n: n}
	copy(c.words, b.words)
	if b.n&63 != 0 {
		// Set the rest of b's last word, then whole words after it.
		c.words[b.n>>6] |= ^uint64(0) << (uint(b.n) & 63)
	}
	for wi := wordsFor(b.n); wi < len(c.words); wi++ {
		c.words[wi] = ^uint64(0)
	}
	c.clearTail()
	return c
}

// And intersects b with o word-wise. The bitmaps must cover the same
// number of rows.
func (b *Bitmap) And(o *Bitmap) {
	if b.n != o.n {
		panic("storage: Bitmap.And length mismatch")
	}
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// ForEachSet calls fn for every set row in ascending order, skipping
// dead regions a word at a time.
func (b *Bitmap) ForEachSet(fn func(row int)) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			fn(base + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Retain clears every set row for which keep returns false, probing
// only rows that are currently set. This is the in-place mask
// reduction primitive pushed-down selections use.
func (b *Bitmap) Retain(keep func(row int) bool) {
	for wi, w := range b.words {
		base := wi << 6
		for m := w; m != 0; m &= m - 1 {
			tz := bits.TrailingZeros64(m)
			if !keep(base + tz) {
				w &^= 1 << uint(tz)
			}
		}
		b.words[wi] = w
	}
}
