// Command m2mdata generates, saves, inspects and verifies the synthetic
// datasets used throughout the benchmarks, so workloads can be
// materialized once and shared across runs or external tools.
//
// Usage:
//
//	m2mdata gen  -out DIR [-shape star|path|snowflake32|snowflake51]
//	             [-rows N] [-m lo,hi] [-fo lo,hi] [-seed N]
//	m2mdata info -dir DIR
//	m2mdata verify -dir DIR        # re-measure stats vs annotations
//	m2mdata mutate -dir DIR [-batches N] [-ops lo,hi] [-seed N] [-out DIR]
//
// mutate replays a reproducible seeded delta stream against a saved
// dataset: each batch mixes appends (values drawn from resident parent
// keys, so appended rows actually join) with deletes of live rows,
// commits it as the next version through the storage delta API, and
// prints the resulting version number and lineage fingerprint — the
// same chain any other replayer of the stream observes. With -out the
// final version's dataset is saved (compacted view: live rows only).
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = runGen(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "verify":
		err = runVerify(os.Args[2:])
	case "mutate":
		err = runMutate(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "m2mdata:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  m2mdata gen  -out DIR [-shape star|path|snowflake32|snowflake51] [-rows N] [-m lo,hi] [-fo lo,hi] [-seed N]
  m2mdata info -dir DIR
  m2mdata verify -dir DIR
  m2mdata mutate -dir DIR [-batches N] [-ops lo,hi] [-seed N] [-out DIR]`)
}

func runGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	out := fs.String("out", "", "output directory (required)")
	shape := fs.String("shape", "snowflake32", "query shape")
	rows := fs.Int("rows", 10000, "driver cardinality")
	mRange := fs.String("m", "0.2,0.6", "match probability range lo,hi")
	foRange := fs.String("fo", "1,5", "fanout range lo,hi")
	seed := fs.Int64("seed", 1, "random seed")
	fs.Parse(args)
	if *out == "" {
		return fmt.Errorf("-out is required")
	}
	mLo, mHi, err := parseRange(*mRange)
	if err != nil {
		return err
	}
	foLo, foHi, err := parseRange(*foRange)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	src := plan.UniformStats(rng, mLo, mHi, foLo, foHi)
	tree, err := plan.ShapeByName(*shape, src)
	if err != nil {
		return err
	}
	ds := workload.Generate(tree, workload.Config{DriverRows: *rows, Seed: *seed})
	if err := storage.SaveDataset(ds, *out); err != nil {
		return err
	}
	fmt.Printf("wrote %d relations (%d total rows) to %s\n",
		tree.Len(), ds.TotalRows(), *out)
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	dir := fs.String("dir", "", "dataset directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	ds, err := storage.LoadDataset(*dir)
	if err != nil {
		return err
	}
	fmt.Printf("join tree: %s\n", ds.Tree)
	fmt.Printf("%-4s %-12s %-10s %8s %8s %8s %s\n",
		"id", "name", "parent", "rows", "m", "fo", "key")
	for i := 0; i < ds.Tree.Len(); i++ {
		id := plan.NodeID(i)
		rel := ds.Relation(id)
		if id == plan.Root {
			fmt.Printf("%-4d %-12s %-10s %8d %8s %8s\n",
				i, rel.Name(), "-", rel.NumRows(), "-", "-")
			continue
		}
		st := ds.Tree.Stats(id)
		fmt.Printf("%-4d %-12s %-10s %8d %8.3f %8.2f %s\n",
			i, rel.Name(), ds.Tree.Name(ds.Tree.Parent(id)),
			rel.NumRows(), st.M, st.Fo, ds.KeyColumn(id))
	}
	return nil
}

func runVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "dataset directory (required)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	ds, err := storage.LoadDataset(*dir)
	if err != nil {
		return err
	}
	measured := workload.Measure(ds)
	fmt.Printf("%-12s %10s %10s %10s %10s\n", "relation", "m (ann.)", "m (data)", "fo (ann.)", "fo (data)")
	for _, id := range ds.Tree.NonRoot() {
		ann := ds.Tree.Stats(id)
		got := measured[id]
		fmt.Printf("%-12s %10.4f %10.4f %10.3f %10.3f\n",
			ds.Tree.Name(id), ann.M, got.M, ann.Fo, got.Fo)
	}
	return nil
}

// runMutate replays a seeded append/delete stream against a saved
// dataset through the storage delta API. The stream is a pure function
// of (dataset, seed, batches, ops range): every replay commits the
// same mutations and therefore walks the same version-number /
// lineage-fingerprint chain, which is what makes the printed
// fingerprints useful as cross-process checksums.
func runMutate(args []string) error {
	fs := flag.NewFlagSet("mutate", flag.ExitOnError)
	dir := fs.String("dir", "", "dataset directory (required)")
	batches := fs.Int("batches", 10, "number of mutation batches to commit")
	opsRange := fs.String("ops", "2,6", "ops per batch range lo,hi")
	seed := fs.Int64("seed", 1, "random seed (the stream is a pure function of it)")
	out := fs.String("out", "", "save the final version's live rows to this directory")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	lo, hi, err := parseRange(*opsRange)
	if err != nil {
		return err
	}
	opsLo, opsHi := int(lo), int(hi)
	if opsLo < 1 || opsHi < opsLo {
		return fmt.Errorf("bad ops range %q", *opsRange)
	}
	ds, err := storage.LoadDataset(*dir)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(*seed))
	cur := ds
	fmt.Printf("v%-4d fp=%016x  (base, %d rows)\n", cur.Version(), cur.VersionFingerprint(), cur.TotalRows())
	for b := 0; b < *batches; b++ {
		delta := cur.Begin()
		// Rows deleted earlier in this batch, per relation — the delta
		// API rejects double-deletes.
		dead := make(map[plan.NodeID]map[int]bool)
		nOps := opsLo + rng.Intn(opsHi-opsLo+1)
		appends, deletes := 0, 0
		for o := 0; o < nOps; o++ {
			id := plan.NodeID(rng.Intn(cur.Tree.Len()))
			rel := cur.Relation(id)
			if rng.Intn(10) < 7 || cur.LiveRows(id) == 0 {
				// Append a row cloned from a random live resident row with
				// a fresh surrogate id: the copied key columns join exactly
				// as the source row does, so the stream grows real join
				// structure rather than dangling tuples.
				src := randomLiveRow(cur, id, dead[id], rng)
				vals := make([]int64, rel.NumCols())
				for c := 0; c < rel.NumCols(); c++ {
					if src >= 0 {
						vals[c] = rel.ColumnAt(c)[src]
					} else {
						vals[c] = rng.Int63n(1 << 32)
					}
				}
				for ci, name := range rel.ColumnNames() {
					if name == "id" {
						vals[ci] = int64(rel.NumRows()) + rng.Int63n(1<<32)
					}
				}
				delta.Append(rel.Name(), vals...)
				appends++
			} else {
				row := randomLiveRow(cur, id, dead[id], rng)
				if row < 0 {
					continue
				}
				if dead[id] == nil {
					dead[id] = make(map[int]bool)
				}
				dead[id][row] = true
				delta.Delete(rel.Name(), row)
				deletes++
			}
		}
		v, err := delta.Commit()
		if err != nil {
			return err
		}
		cur = v.Dataset
		line := fmt.Sprintf("v%-4d fp=%016x  +%d -%d", cur.Version(), cur.VersionFingerprint(), appends, deletes)
		for _, d := range v.Deltas {
			if d.Compacted {
				line += fmt.Sprintf("  compacted=%s", cur.Relation(d.Rel).Name())
			}
		}
		fmt.Println(line)
	}
	if *out != "" {
		if err := storage.SaveDataset(materializeLive(cur), *out); err != nil {
			return err
		}
		fmt.Printf("wrote live view of v%d (%d rows) to %s\n", cur.Version(), liveTotal(cur), *out)
	}
	return nil
}

// randomLiveRow picks a uniformly random live row of relation id that
// is not in skip, or -1 when none remains.
func randomLiveRow(ds *storage.Dataset, id plan.NodeID, skip map[int]bool, rng *rand.Rand) int {
	rel, live := ds.Relation(id), ds.Live(id)
	candidates := make([]int, 0, rel.NumRows())
	for r := 0; r < rel.NumRows(); r++ {
		if (live == nil || live.Get(r)) && !skip[r] {
			candidates = append(candidates, r)
		}
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[rng.Intn(len(candidates))]
}

// materializeLive copies a versioned snapshot's live rows into a fresh
// unversioned dataset — the physical form SaveDataset understands
// (the on-disk format has no liveness sidecar).
func materializeLive(ds *storage.Dataset) *storage.Dataset {
	out := storage.NewDataset(ds.Tree)
	for i := 0; i < ds.Tree.Len(); i++ {
		id := plan.NodeID(i)
		src := ds.Relation(id)
		live := ds.Live(id)
		rows := make([]int32, 0, src.NumRows())
		for r := 0; r < src.NumRows(); r++ {
			if live == nil || live.Get(r) {
				rows = append(rows, int32(r))
			}
		}
		rel := storage.NewRelation(src.Name(), src.ColumnNames()...)
		rel.GatherRows(src, rows)
		keyCol := ""
		if id != plan.Root {
			keyCol = ds.KeyColumn(id)
		}
		out.SetRelation(id, rel, keyCol)
	}
	return out
}

// liveTotal sums live rows across relations.
func liveTotal(ds *storage.Dataset) int {
	n := 0
	for i := 0; i < ds.Tree.Len(); i++ {
		n += ds.LiveRows(plan.NodeID(i))
	}
	return n
}

func parseRange(s string) (lo, hi float64, err error) {
	parts := strings.Split(s, ",")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("range %q must be lo,hi", s)
	}
	if _, err := fmt.Sscanf(parts[0], "%g", &lo); err != nil {
		return 0, 0, fmt.Errorf("bad range %q: %v", s, err)
	}
	if _, err := fmt.Sscanf(parts[1], "%g", &hi); err != nil {
		return 0, 0, fmt.Errorf("bad range %q: %v", s, err)
	}
	return lo, hi, nil
}
