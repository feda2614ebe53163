package hashtable

import (
	"fmt"
	"slices"
)

// The scalar lookups the tests read single keys with. The table has no
// scalar probe of its own — every probe is the batch kernel — so these
// answer one key through all three batch entry points, and panic
// unless the three agree.

// scalarProbe returns key's matching rows.
func scalarProbe(t *Table, key int64) []int32 {
	keys := []int64{key}
	var res ProbeResult
	t.ProbeBatchInto(keys, nil, &res)
	var count [1]int32
	t.ProbeCounts(keys, nil, count[:])
	var found [1]bool
	t.ProbeContains(keys, nil, found[:])
	if int(count[0]) != len(res.Rows) || res.Counts[0] != count[0] || found[0] != (count[0] > 0) {
		panic(fmt.Sprintf("key %d: ProbeBatchInto %v, ProbeCounts %d, ProbeContains %v",
			key, res.Rows, count[0], found[0]))
	}
	return res.Rows
}

func contains(t *Table, key int64) bool { return len(scalarProbe(t, key)) > 0 }

func countMatches(t *Table, key int64) int32 { return int32(len(scalarProbe(t, key))) }

func appendMatches(t *Table, dst []int32, key int64) []int32 {
	return append(dst, scalarProbe(t, key)...)
}

// probeBatch is ProbeBatchInto into a fresh result.
func probeBatch(t *Table, keys []int64, sel []bool) ProbeResult {
	var res ProbeResult
	t.ProbeBatchInto(keys, sel, &res)
	return res
}

// modelOf is the naive answer to every probe of t: each key's live rows
// in ascending row order, read off the entry arrays without touching
// the directory, the tags or the kernel.
func modelOf(t *Table) map[int64][]int32 {
	m := make(map[int64][]int32)
	for part := t; part != nil; part = part.app {
		for e, k := range part.keys {
			if !part.isDead(uint64(e)) {
				m[k] = append(m[k], part.rows[e])
			}
		}
	}
	for _, rows := range m {
		slices.Sort(rows)
	}
	return m
}
