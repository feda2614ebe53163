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
// word alone vs probes that walked a bucket's chain). -trace prints the
// execution's span tree — phase-1 builds, semi-join reductions, the
// probe loop and the merge, with per-span durations — after the
// counters. -cpuprofile and -memprofile record pprof profiles of the
// run, also of one that fails.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/telemetry"
	"m2mjoin/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the plan, counters
// and trace to stdout and diagnostics to stderr, and returns the exit
// status. Profiles are flushed by defers, so a failed run still leaves
// valid ones.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("m2mquery", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shape := fs.String("shape", "snowflake32", "query shape: star, path, snowflake32, snowflake51")
	rows := fs.Int("rows", 10000, "driver relation cardinality")
	mRange := fs.String("m", "0.2,0.6", "match probability range lo,hi")
	foRange := fs.String("fo", "1,5", "fanout range lo,hi")
	seed := fs.Int64("seed", 1, "random seed")
	compare := fs.Bool("compare", false, "execute all six strategies and compare")
	parallelism := fs.Int("parallelism", 1,
		"probe workers (1 sequential, -1 all CPUs); edge measurement uses every CPU; results are identical at any setting")
	trace := fs.Bool("trace", false, "print the execution's per-phase span tree")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "m2mquery:", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err == nil {
				runtime.GC() // materialize the steady-state heap
				err = pprof.WriteHeapProfile(f)
				f.Close()
			}
			if err != nil {
				fmt.Fprintln(stderr, "m2mquery: memprofile:", err)
			}
		}()
	}

	if *rows < 1 {
		return fail(fmt.Errorf("-rows %d: the driver needs at least one row", *rows))
	}
	mLo, mHi, err := plan.ParseRange(*mRange)
	if err == nil && (mLo <= 0 || mHi > 1) {
		err = fmt.Errorf("-m %s: a match probability lies in (0, 1]", *mRange)
	}
	if err != nil {
		return fail(err)
	}
	foLo, foHi, err := plan.ParseRange(*foRange)
	if err == nil && foLo < 1 {
		err = fmt.Errorf("-fo %s: a fanout is at least 1", *foRange)
	}
	if err != nil {
		return fail(err)
	}

	rng := rand.New(rand.NewSource(*seed))
	src := plan.UniformStats(rng, mLo, mHi, foLo, foHi)
	tree, err := plan.ShapeByName(*shape, src)
	if err != nil {
		return fail(err)
	}

	fmt.Fprintf(stdout, "query tree: %s\n", tree)
	fmt.Fprintf(stdout, "generating dataset (driver=%d rows)...\n", *rows)
	ds := workload.Generate(tree, workload.Config{DriverRows: *rows, Seed: *seed})
	for _, id := range tree.TopDown() {
		fmt.Fprintf(stdout, "  %-4s %8d rows\n", tree.Name(id), ds.Relation(id).NumRows())
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
		return fail(err)
	}
	planned := time.Since(start)
	fmt.Fprintf(stdout, "\nchosen plan: strategy=%s order=%s\n", choice.Strategy, choice.Order)
	fmt.Fprintf(stdout, "predicted cost: %.1f weighted probes/driver tuple (%.0f total)\n",
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
		return fail(err)
	}
	executed := time.Since(start)
	printStats(stdout, choice.Strategy.String(), stats, executed)
	// Where the time went: tables are built while measuring and served to
	// the executor, which builds only what it cannot be served.
	fmt.Fprintf(stdout, "  measure=%.1fms plan=%.1fms exec=%.1fms tables built=%d served=%d\n",
		msec(measured), msec(planned), msec(executed), cache.Misses(), stats.CacheHits)
	if tr != nil {
		tr.End(root)
		fmt.Fprintln(stdout, "\ntrace:")
		printTrace(stdout, tr.Finish())
	}

	if *compare {
		fmt.Fprintln(stdout, "\nstrategy comparison (same join order):")
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
				return fail(err)
			}
			printStats(stdout, s.String(), st, time.Since(start))
		}
	}
	return 0
}

// printTrace renders the span tree with indentation, per-span start
// offsets, durations and attributes.
func printTrace(w io.Writer, n *telemetry.SpanNode) {
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
		fmt.Fprintln(w, line)
	})
}

func printStats(w io.Writer, label string, s exec.Stats, elapsed time.Duration) {
	fmt.Fprintf(w, "  %-8s %10v  hash=%    -10d filter=%-9d semijoin=%-9d taghit=%-10d tagmiss=%-9d out=%-10d weighted=%.0f\n",
		label, elapsed.Round(time.Microsecond), s.HashProbes, s.FilterProbes,
		s.SemiJoinProbes, s.TagHits, s.TagMisses, s.OutputTuples,
		s.WeightedCost(cost.DefaultWeights()))
}

func msec(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
