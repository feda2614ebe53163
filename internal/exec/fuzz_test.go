package exec

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// fuzzTree builds a star, path or snowflake of n relations. The
// snowflake gives the driver ⌈(n-1)/2⌉ children and hangs the rest one
// under each of the first of them.
func fuzzTree(shape, n int, src plan.StatsSource) *plan.Tree {
	switch shape {
	case 0:
		return plan.Star(n-1, src)
	case 1:
		return plan.Path(n, src)
	}
	tr := plan.NewTree("")
	k := n / 2 // ⌈(n-1)/2⌉
	for i := 0; i < k; i++ {
		tr.AddChild(plan.Root, src(), "")
	}
	for i := 0; i < n-1-k; i++ {
		tr.AddChild(plan.NodeID(1+i), src(), "")
	}
	return tr
}

// emptyDataset is a dataset over tr with workload.Generate's columns
// and no rows at all, which Generate refuses to make.
func emptyDataset(tr *plan.Tree) *storage.Dataset {
	ds := storage.NewDataset(tr)
	for _, id := range tr.TopDown() {
		cols := []string{"id", "v"}
		key := ""
		if id != plan.Root {
			key = fmt.Sprintf("k%d", id)
			cols = append(cols, key)
		}
		for _, c := range tr.Children(id) {
			cols = append(cols, fmt.Sprintf("k%d", c))
		}
		ds.SetRelation(id, storage.NewRelation(tr.Name(id), cols...), key)
	}
	return ds
}

// FuzzExecCounters runs generated queries through all six strategies
// and holds every counter to the countingReference and the output to
// ReferenceOpts. The inputs: a star, path or snowflake of 2–6 relations
// with per-edge m drawn from [mLo, 1] and fo from [1, foHi]; 0–3 000
// driver rows; STD, BVP+STD, SJ+STD, COM, BVP+COM or SJ+COM
// (strategy % 6) over a random valid order, with flat or factorized
// output; 1, 2 or 8 workers; a chunk size of 1–2 048 rows, or within 15
// of math.MaxInt for chunk ≥ 0xFFF0; at most one equality selection on
// a relation's id column (sel = 0: none; otherwise relation sel&7 mod n
// keeps the row with id sel>>3 − 1, so sel>>3 = 0 keeps nothing); and
// NoInterleave, which is ignored and kept so the committed seeds keep
// their encoding.
func FuzzExecCounters(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape, nrel, m, fo uint8, rows uint16, strategy uint8, flat bool, workers uint8,
		chunk uint16, sel uint8, noInterleave bool, seed int64) {
		chunkSize := 1 + int(chunk)%2048
		if chunk >= 0xFFF0 {
			chunkSize = math.MaxInt - int(chunk&0xF)
		}
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nrel)%5
		mLo := float64(1+int(m)%100) / 100
		foHi := 1 + float64(fo%5)/4
		tr := fuzzTree(int(shape)%3, n, plan.UniformStats(rng, mLo, 1, 1, foHi))
		var ds *storage.Dataset
		if driver := int(rows) % 3001; driver > 0 {
			ds = workload.Generate(tr, workload.Config{DriverRows: driver, Seed: seed})
		} else {
			ds = emptyDataset(tr)
		}
		opts := Options{
			Strategy:     []cost.Strategy{cost.STD, cost.BVPSTD, cost.SJSTD, cost.COM, cost.BVPCOM, cost.SJCOM}[strategy%6],
			Order:        randomOrder(tr, rng),
			FlatOutput:   flat,
			ChunkSize:    chunkSize,
			Parallelism:  []int{1, 2, 8}[workers%3],
			NoInterleave: noInterleave,
		}
		if sel != 0 {
			opts.Selections = []Selection{{Rel: plan.NodeID(int(sel&7) % n), Column: "id", Value: int64(sel>>3) - 1}}
		}
		got, err := Run(ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("%v order=%v rows=%d chunk=%d par=%d nointerleave=%v sel=%v",
			tr, opts.Order, ds.Relation(plan.Root).NumRows(), opts.ChunkSize, opts.Parallelism, noInterleave, opts.Selections)
		requireCounts(t, label, opts, got, countingReference(ds, opts))
		count, sum := ReferenceOpts(ds, nil, opts.Selections)
		if opts.Strategy.Factorized() && !flat {
			got.Checksum, sum = 0, 0 // no flat tuples, no checksum
		}
		if got.OutputTuples != count || got.Checksum != sum {
			t.Errorf("%s %v: %d tuples, checksum %x; ReferenceOpts %d, %x",
				label, opts.Strategy, got.OutputTuples, got.Checksum, count, sum)
		}
	})
}
