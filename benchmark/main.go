// Command benchmark is the repository's benchmark harness: four
// workloads, the end-to-end metrics a user of the system sees, and a
// traced pass that times every layer from outside. BENCHMARK.json at
// the repo root names it; README.md in this directory is the catalogue.
//
// One run (what the benchmark driver invokes):
//
//	benchmark --workload W --seed N --seconds S --trace 0|1
//
// prints every metric by name with its unit, and as the last line of
// standard output one JSON object {correct, attempted, failed,
// metrics}. --trace 0 is the measured phase and yields the end-to-end
// metrics; --trace 1 is the traced pass and yields the per-layer ones.
// The exit status is non-zero on any correctness failure.
//
// A full set (every workload, both passes, each in a child process so
// set-up time, peak RSS and GC state are per workload):
//
//	benchmark -seed N -out results.json
//
// Repeated sets and comparison:
//
//	benchmark -aa N -out prefix     N sets of the same seed, alternating order
//	benchmark -spread N             N runs per workload on seeds seed..seed+N-1
//	benchmark -compare old.json new.json
//	benchmark -manifest             print BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload: "+workloadNames())
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: measured phase, end-to-end metrics; 1: traced pass, per-layer metrics")
		scaleArg = flag.String("scale", "full", "input scale: full or smoke")
		spans    = flag.String("spans", "", "with --trace 1: write the harness spans to this file at exit")
		out      = flag.String("out", "", "full set: write the results here (with -aa: file name prefix)")
		aa       = flag.Int("aa", 0, "run this many full sets of one seed, alternating workload order, and report spreads")
		spread   = flag.Int("spread", 0, "run each workload's measured phase this many times on consecutive seeds and report spreads")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	sc := fullScale
	switch *scaleArg {
	case "full":
	case "smoke":
		sc = smokeScale
	default:
		fatal(fmt.Errorf("unknown scale %q", *scaleArg))
	}

	switch {
	case *manifest:
		os.Stdout.Write(manifestJSON())
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result files"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
	case *workload != "":
		c := runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0,
			sc: sc, nproc: runtime.NumCPU(), spans: *spans,
		}
		if err := runOne(c); err != nil {
			fatal(err)
		}
	default:
		sets, seeds := 1, false
		if *aa > 0 {
			sets = *aa
		}
		if *spread > 0 {
			sets, seeds = *spread, true
		}
		if err := runSets(setConfig{
			seed: *seed, seconds: *seconds, scale: *scaleArg, out: *out,
			sets: sets, varySeed: seeds,
		}); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// infoPrefix marks the stdout line carrying a run's runInfo, which a
// parent collecting a full set reads back.
const infoPrefix = "# info "

// runOne is the driver-facing run: metrics by name, then the result
// object as the last line. A correctness failure still prints nothing
// the driver could take for a result.
func runOne(c runConfig) error {
	res, err := runWorkload(c)
	if err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed; first: %v", c.workload, res.Failed, res.Attempted, res.firstErr)
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n", infoPrefix, info)
	for _, n := range res.notes {
		fmt.Println("#", n)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-44s %16.6f %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
