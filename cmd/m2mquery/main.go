// Command m2mquery generates a synthetic many-to-many join query of a
// chosen shape, lets the optimizer pick the best strategy and join
// order from measured statistics (exact to 16 384 live parent rows per
// edge, an 8 192-row systematic sample above), and executes it —
// printing the plan, the predicted cost, and the measured execution
// counters. It is the quickest way to see the planner and all six
// execution strategies on real (generated) data.
//
// Usage:
//
//	m2mquery [-shape star|path|snowflake32|snowflake51] [-rows N]
//	         [-m lo,hi] [-fo lo,hi] [-seed N] [-compare] [-parallelism N]
//	         [-trace] [-cpuprofile file] [-memprofile file]
//
// After the chosen plan's counters one line splits the query's time —
// measure (the statistics pass, which builds the hash tables), plan (the
// join-order search) and exec — and reports how many tables were built
// while measuring and how many of them execution was served.
//
// With -compare, all six strategies are executed with the chosen order
// and their counters printed side by side, including the tagged hash
// table's TagHits/TagMisses split (probes answered by the directory
// word alone vs probes that verified a bucket run). -trace prints the
// execution's span tree — phase-1 builds, semi-join reductions, the
// probe loop and the merge, with per-span durations — after the
// counters. -cpuprofile and -memprofile record pprof profiles of the
// run.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/telemetry"
	"m2mjoin/internal/workload"
)

func main() {
	shape := flag.String("shape", "snowflake32", "query shape: star, path, snowflake32, snowflake51")
	rows := flag.Int("rows", 10000, "driver relation cardinality")
	mRange := flag.String("m", "0.2,0.6", "match probability range lo,hi")
	foRange := flag.String("fo", "1,5", "fanout range lo,hi")
	seed := flag.Int64("seed", 1, "random seed")
	compare := flag.Bool("compare", false, "execute all six strategies and compare")
	parallelism := flag.Int("parallelism", 1,
		"probe workers (1 sequential, -1 all CPUs); results are identical at any setting")
	trace := flag.Bool("trace", false, "print the execution's per-phase span tree")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		// fatal exits via os.Exit, which skips defers — route the stop
		// through atExit so error exits still flush a valid profile.
		stopCPU := func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		atExit = append(atExit, stopCPU)
		defer stopCPU()
	}
	if *memprofile != "" {
		var once sync.Once
		writeHeap := func() {
			once.Do(func() {
				f, err := os.Create(*memprofile)
				if err != nil {
					fmt.Fprintln(os.Stderr, "m2mquery: memprofile:", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialize the steady-state heap
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "m2mquery: memprofile:", err)
				}
			})
		}
		atExit = append(atExit, writeHeap)
		defer writeHeap()
	}

	mLo, mHi, err := parseRange(*mRange)
	if err != nil {
		fatal(err)
	}
	foLo, foHi, err := parseRange(*foRange)
	if err != nil {
		fatal(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	src := plan.UniformStats(rng, mLo, mHi, foLo, foHi)
	tree, err := plan.ShapeByName(*shape, src)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("query tree: %s\n", tree)
	fmt.Printf("generating dataset (driver=%d rows)...\n", *rows)
	ds := workload.Generate(tree, workload.Config{DriverRows: *rows, Seed: *seed})
	for _, id := range tree.TopDown() {
		fmt.Printf("  %-4s %8d rows\n", tree.Name(id), ds.Relation(id).NumRows())
	}

	// Measure through a cache of our own so the statistics scan (which
	// builds the hash tables) and the plan search are timed apart; the
	// search then replays the cached statistics.
	cache := workload.NewEdgeStatsCache()
	start := time.Now()
	workload.MeasuredTreeCached(ds, cache)
	measured := time.Since(start)
	start = time.Now()
	choice, err := core.ChoosePlan(core.PlanRequest{
		Dataset:      ds,
		MeasureStats: true,
		StatsCache:   cache,
		FlatOutput:   true,
	})
	if err != nil {
		fatal(err)
	}
	planned := time.Since(start)
	fmt.Printf("\nchosen plan: strategy=%s order=%s\n", choice.Strategy, choice.Order)
	fmt.Printf("predicted cost: %.1f weighted probes/driver tuple (%.0f total)\n",
		choice.Predicted.Total, choice.Predicted.Total*float64(*rows))

	var tr *telemetry.Trace
	root := telemetry.NoParent
	if *trace {
		tr = telemetry.NewTrace(nil)
		root = tr.Start("query", telemetry.NoParent)
	}
	start = time.Now()
	stats, err := core.Execute(ds, choice, core.ExecuteOptions{
		FlatOutput: true, Parallelism: *parallelism,
		Trace: tr, TraceParent: root,
	})
	if err != nil {
		fatal(err)
	}
	executed := time.Since(start)
	printStats(choice.Strategy.String(), stats, executed)
	// Where the time went: tables are built while measuring and served to
	// the executor, which builds only what it cannot be served.
	fmt.Printf("  measure=%.1fms plan=%.1fms exec=%.1fms tables built=%d served=%d\n",
		msec(measured), msec(planned), msec(executed), choice.Tables.Len(), stats.CacheHits)
	if tr != nil {
		tr.End(root)
		fmt.Println("\ntrace:")
		printTrace(tr.Finish())
	}

	if *compare {
		fmt.Println("\nstrategy comparison (same join order):")
		for _, s := range cost.AllStrategies {
			c := choice
			c.Strategy = s
			if s.Reduction() != cost.SemiJoin {
				c.SemiJoins = nil
			}
			start := time.Now()
			st, err := core.Execute(ds, c, core.ExecuteOptions{
				FlatOutput: true, Parallelism: *parallelism,
			})
			if err != nil {
				fatal(err)
			}
			printStats(s.String(), st, time.Since(start))
		}
	}
}

// printTrace renders the span tree with indentation, per-span start
// offsets, durations and attributes.
func printTrace(n *telemetry.SpanNode) {
	n.Each(func(depth int, sp *telemetry.SpanNode) {
		indent := strings.Repeat("  ", depth+1)
		line := fmt.Sprintf("%s%-14s +%-10v %10v", indent, sp.Name,
			time.Duration(sp.StartNanos).Round(time.Microsecond),
			time.Duration(sp.DurationNanos).Round(time.Microsecond))
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				line += fmt.Sprintf("  %s=%d", k, sp.Attrs[k])
			}
		}
		fmt.Println(line)
	})
}

func printStats(label string, s exec.Stats, elapsed time.Duration) {
	fmt.Printf("  %-8s %10v  hash=%    -10d filter=%-9d semijoin=%-9d taghit=%-10d tagmiss=%-9d out=%-10d weighted=%.0f\n",
		label, elapsed.Round(time.Microsecond), s.HashProbes, s.FilterProbes,
		s.SemiJoinProbes, s.TagHits, s.TagMisses, s.OutputTuples,
		s.WeightedCost(cost.DefaultWeights()))
}

func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

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

// atExit hooks run before fatal's os.Exit (which skips defers) — used
// to flush active CPU/heap profiles on error exits too.
var atExit []func()

func fatal(err error) {
	for _, fn := range atExit {
		fn()
	}
	fmt.Fprintln(os.Stderr, "m2mquery:", err)
	os.Exit(1)
}
