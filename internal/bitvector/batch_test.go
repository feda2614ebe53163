package bitvector

import (
	"math/rand"
	"slices"
	"testing"

	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/storage"
)

// mayContain is the per-key model of every filter probe: whether key's
// tag bit is set in its word. A false result is definitive: the key was
// never added.
func mayContain(f *Filter, key int64) bool {
	h := hashtable.Hash64(key)
	return f.bits[hashtable.Bucket(h, f.shift)]&hashtable.Tag(h, f.shift, tagWidth) != 0
}

// TestProbeContainsMatchesMayContain: the batch probe must agree with
// per-key mayContain, honor the selection vector, and support in-place
// mask reduction.
func TestProbeContainsMatchesMayContain(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := New(1024, 8)
	for i := 0; i < 1024; i++ {
		f.Add(rng.Int63n(2000))
	}
	n := 4096
	keys := make([]int64, n)
	sel := make([]bool, n)
	for i := range keys {
		keys[i] = rng.Int63n(4000)
		sel[i] = rng.Intn(4) > 0
	}
	out := make([]bool, n)
	probed := f.ProbeContains(keys, sel, out)
	wantProbed := 0
	for i, key := range keys {
		want := false
		if sel[i] {
			wantProbed++
			want = mayContain(f, key)
		}
		if out[i] != want {
			t.Fatalf("lane %d: got %v, want %v", i, out[i], want)
		}
	}
	if probed != wantProbed {
		t.Errorf("probed = %d, want %d", probed, wantProbed)
	}

	// nil selection probes everything.
	if got := f.ProbeContains(keys, nil, out); got != n {
		t.Errorf("nil sel probed %d, want %d", got, n)
	}

	// In-place: mask as both sel and out.
	mask := append([]bool(nil), sel...)
	f.ProbeContains(keys, mask, mask)
	for i := range mask {
		if mask[i] != (sel[i] && mayContain(f, keys[i])) {
			t.Fatalf("in-place reduction wrong at lane %d", i)
		}
	}
}

// TestRetainMatchesMayContain: the keep-survivors kernel keeps exactly
// the rows a per-row mayContain filter keeps, in order, with carry
// moved in lock step (or no carry at all); chained, each filter sees
// only the previous one's survivors; an empty input keeps nothing; and
// nothing is allocated.
func TestRetainMatchesMayContain(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	col := make(storage.Column, 8192)
	for i := range col {
		col[i] = rng.Int63n(4000)
	}
	filters := make([]*Filter, 3)
	for j := range filters {
		filters[j] = New(1024, 8)
		for i := 0; i < 512<<j; i++ {
			filters[j].Add(rng.Int63n(4000))
		}
	}
	rows := make([]int32, 3000)
	for i := range rows {
		rows[i] = int32(rng.Intn(len(col)))
	}
	carry := make([]int32, len(rows))
	for i := range carry {
		carry[i] = int32(i)
	}
	// The model: every filter in turn over the survivors, row by row.
	wantRows, wantCarry := slices.Clone(rows), slices.Clone(carry)
	for _, f := range filters {
		var r, c []int32
		for i, row := range wantRows {
			if mayContain(f, col[row]) {
				r, c = append(r, row), append(c, wantCarry[i])
			}
		}
		wantRows, wantCarry = r, c
	}
	if len(wantRows) == 0 || len(wantRows) == len(rows) {
		t.Fatalf("filters keep %d of %d rows; the test wants some of each", len(wantRows), len(rows))
	}

	gotRows, gotCarry := slices.Clone(rows), slices.Clone(carry)
	bare := slices.Clone(rows)
	k, kb := len(rows), len(rows)
	for _, f := range filters {
		k = f.Retain(col, gotRows[:k], gotCarry)
		kb = f.Retain(col, bare[:kb], nil)
	}
	if !slices.Equal(gotRows[:k], wantRows) || !slices.Equal(gotCarry[:k], wantCarry) {
		t.Fatalf("Retain kept rows %v carry %v, want %v %v", gotRows[:k], gotCarry[:k], wantRows, wantCarry)
	}
	if !slices.Equal(bare[:kb], wantRows) {
		t.Fatalf("Retain with nil carry kept %v, want %v", bare[:kb], wantRows)
	}
	if got := filters[0].Retain(col, nil, nil) + filters[0].Retain(col, rows[:0], carry); got != 0 {
		t.Errorf("Retain over no rows kept %d", got)
	}

	allocs := testing.AllocsPerRun(100, func() {
		copy(gotRows, rows)
		copy(gotCarry, carry)
		filters[0].Retain(col, gotRows, gotCarry)
		filters[1].Retain(col, gotRows, nil)
	})
	if allocs != 0 {
		t.Errorf("Retain allocated %.1f times per call pair, want 0", allocs)
	}
}
