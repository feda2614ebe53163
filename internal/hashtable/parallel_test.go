package hashtable

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"m2mjoin/internal/storage"
)

func randomRelation(rng *rand.Rand, n, keySpace int) *storage.Relation {
	rel := storage.NewRelation("R", "k")
	for i := 0; i < n; i++ {
		rel.AppendRow(int64(rng.Intn(keySpace)))
	}
	return rel
}

func randomMask(rng *rand.Rand, n int, density float64) *storage.Bitmap {
	live := storage.NewEmptyBitmap(n)
	for i := 0; i < n; i++ {
		if rng.Float64() < density {
			live.Set(i)
		}
	}
	return live
}

// TestBuildParallelBitIdentical: the two-pass morsel build must
// reproduce the sequential pointer table and bucket chains exactly —
// keys, rows, next links and bucket heads — at every worker count,
// with and without live masks, across sizes spanning the parallel
// threshold and morsel boundaries.
func TestBuildParallelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sizes := []int{0, 100, 4096, 8191, 8192, 8193, 30000}
	for _, n := range sizes {
		rel := randomRelation(rng, n, 1+n/3)
		masks := []*storage.Bitmap{nil}
		if n > 0 {
			masks = append(masks, randomMask(rng, n, 0.5), randomMask(rng, n, 0.02))
		}
		for mi, live := range masks {
			want := Build(rel, "k", live)
			for _, workers := range []int{2, 3, 8} {
				got := BuildParallelStop(rel, "k", live, workers, nil)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("n=%d mask=%d workers=%d: parallel build differs from sequential",
						n, mi, workers)
				}
			}
		}
	}
}

// TestBuildStopPanicReachesCaller: a stop hook that panics inside the
// parallel gather pass unwinds on the goroutine that called
// BuildParallelStop, with the hook's own panic value. Over five morsels
// the hook's first poll is the pre-build one and polls 2–6 come from
// the gather workers.
func TestBuildStopPanicReachesCaller(t *testing.T) {
	rel := randomRelation(rand.New(rand.NewSource(3)), 5*morselRows, 1000)
	for _, k := range []int64{2, 5} {
		sentinel := fmt.Sprintf("stop panics on poll %d", k)
		var polls atomic.Int64
		stop := func() bool {
			if polls.Add(1) == k {
				panic(sentinel)
			}
			return false
		}
		var got any
		func() {
			defer func() { got = recover() }()
			BuildParallelStop(rel, "k", nil, 4, stop)
		}()
		if got != sentinel {
			t.Errorf("poll %d: caller recovered %v, want %q", k, got, sentinel)
		}
	}
}

// TestBuildSkipsDeadRows: with a sparse mask the build must retain
// exactly the set rows (bucket-sorted, so compare as a sorted set).
func TestBuildSkipsDeadRows(t *testing.T) {
	rel := randomRelation(rand.New(rand.NewSource(5)), 1000, 50)
	live := storage.NewEmptyBitmap(1000)
	want := []int32{3, 64, 65, 511, 999}
	for _, r := range want {
		live.Set(int(r))
	}
	table := Build(rel, "k", live)
	if table.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", table.Len(), len(want))
	}
	got := append([]int32(nil), table.rows...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

// TestReduceLiveMatchesNaive: ReduceLive must clear exactly the live
// rows without a match, count exactly the rows it probed, and leave
// dead rows untouched — including when the range is split word-aligned
// as the parallel semi-join reduction does.
func TestReduceLiveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	build := randomRelation(rng, 500, 80)
	table := Build(build, "k", nil)
	n := 3000
	probeRel := randomRelation(rng, n, 200)
	keyCol := probeRel.Column("k")

	for trial := 0; trial < 5; trial++ {
		mask := randomMask(rng, n, 0.6)
		wantProbed := mask.Count()
		want := make([]bool, n)
		for i := 0; i < n; i++ {
			want[i] = mask.Get(i) && contains(table, keyCol[i])
		}

		// Whole-range reduction.
		whole := mask.Clone()
		wholeStats := table.ReduceLive(keyCol, whole, 0, n)
		if wholeStats.Probed != wantProbed {
			t.Fatalf("trial %d: probed %d, want %d", trial, wholeStats.Probed, wantProbed)
		}
		if wholeStats.TagHits+wholeStats.TagMisses != wantProbed {
			t.Fatalf("trial %d: tag split %d+%d != probed %d",
				trial, wholeStats.TagHits, wholeStats.TagMisses, wantProbed)
		}
		// Split word-aligned reduction, as the parallel pass does.
		split := mask.Clone()
		var splitStats ProbeStats
		splitStats.Add(table.ReduceLive(keyCol, split, 0, 1024))
		splitStats.Add(table.ReduceLive(keyCol, split, 1024, 2048))
		splitStats.Add(table.ReduceLive(keyCol, split, 2048, n))
		if splitStats != wholeStats {
			t.Fatalf("trial %d: split stats %+v, want %+v", trial, splitStats, wholeStats)
		}
		for i := 0; i < n; i++ {
			if whole.Get(i) != want[i] || split.Get(i) != want[i] {
				t.Fatalf("trial %d row %d: whole=%v split=%v want=%v",
					trial, i, whole.Get(i), split.Get(i), want[i])
			}
		}
	}
}
