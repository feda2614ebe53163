package hashtable

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomProbe builds a random table and probe batch with ~50% hits and
// a random selection vector.
func randomProbe(seed int64, n int) (*Table, []int64, []bool) {
	rng := rand.New(rand.NewSource(seed))
	build := make([]int64, n)
	for i := range build {
		build[i] = rng.Int63n(int64(n))
	}
	table := Build(buildRelation(build), "k", nil)
	keys := make([]int64, n)
	sel := make([]bool, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(2 * n))
		sel[i] = rng.Intn(4) > 0
	}
	return table, keys, sel
}

// TestProbeBatchIntoReusesAndMatches: repeated ProbeBatchInto calls on
// a reused result must equal fresh ProbeBatch results, and must not
// allocate once buffers reached steady state.
func TestProbeBatchIntoReusesAndMatches(t *testing.T) {
	table, keys, sel := randomProbe(1, 4096)
	var reused ProbeResult
	for trial := 0; trial < 3; trial++ {
		for _, s := range [][]bool{nil, sel} {
			want := probeBatch(table, keys, s)
			table.ProbeBatchInto(keys, s, &reused)
			if reused.Probed != want.Probed ||
				!reflect.DeepEqual(reused.Counts, want.Counts) ||
				!reflect.DeepEqual(reused.Offsets, want.Offsets) ||
				!reflect.DeepEqual(reused.Rows, want.Rows) {
				t.Fatalf("trial %d: ProbeBatchInto diverged from ProbeBatch", trial)
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		table.ProbeBatchInto(keys, sel, &reused)
	})
	if allocs > 0 {
		t.Errorf("steady-state ProbeBatchInto allocates %.1f times per call", allocs)
	}
}

// TestProbeContainsMatchesContains: the batch semi-join probe must
// agree with per-key Contains, honor the selection vector, and support
// in-place mask reduction (sel aliasing out).
func TestProbeContainsMatchesContains(t *testing.T) {
	table, keys, sel := randomProbe(2, 2048)
	out := make([]bool, len(keys))
	st := table.ProbeContains(keys, sel, out)
	wantProbed := 0
	for i, key := range keys {
		if !sel[i] {
			if out[i] {
				t.Fatalf("unselected lane %d set", i)
			}
			continue
		}
		wantProbed++
		if out[i] != contains(table, key) {
			t.Fatalf("lane %d: ProbeContains %v, Contains %v", i, out[i], contains(table, key))
		}
	}
	if st.Probed != wantProbed {
		t.Errorf("probed = %d, want %d", st.Probed, wantProbed)
	}
	if st.TagHits+st.TagMisses != wantProbed {
		t.Errorf("tag split %d+%d != probed %d", st.TagHits, st.TagMisses, wantProbed)
	}

	// In-place: pass the mask as both sel and out.
	mask := append([]bool(nil), sel...)
	table.ProbeContains(keys, mask, mask)
	for i := range mask {
		if mask[i] != (sel[i] && contains(table, keys[i])) {
			t.Fatalf("in-place reduction wrong at lane %d", i)
		}
	}
}

// TestProbeCountsMatchesCountMatches: batch counts must agree with the
// per-key CountMatches.
func TestProbeCountsMatchesCountMatches(t *testing.T) {
	table, keys, sel := randomProbe(3, 2048)
	counts := make([]int32, len(keys))
	st := table.ProbeCounts(keys, sel, counts)
	wantProbed := 0
	for i, key := range keys {
		want := int32(0)
		if sel[i] {
			wantProbed++
			want = countMatches(table, key)
		}
		if counts[i] != want {
			t.Fatalf("lane %d: count %d, want %d", i, counts[i], want)
		}
	}
	if st.Probed != wantProbed {
		t.Errorf("probed = %d, want %d", st.Probed, wantProbed)
	}
	if st.TagHits+st.TagMisses != wantProbed {
		t.Errorf("tag split %d+%d != probed %d", st.TagHits, st.TagMisses, wantProbed)
	}
}
