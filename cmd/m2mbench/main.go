// Command m2mbench regenerates the figures of "Optimizing Queries with
// Many-to-Many Joins" (Kalumin & Deshpande, ICDE 2025) from this
// repository's reimplementation. Each subcommand reproduces one figure
// of the paper (experiments.Figures lists them); `all` runs everything.
//
// Usage:
//
//	m2mbench [-scale quick|full] [-seed N] [-parallelism N] <figure|all>
//
// quick scale (default) finishes in seconds; full scale approaches the
// paper's experiment sizes and can take many minutes. For a profile of
// one figure, go test -run 'TestPaperClaims/fig11' -cpuprofile cpu.out
// ./internal/experiments runs the same code.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"m2mjoin/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the requested
// figures to stdout and diagnostics to stderr, and returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("m2mbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleFlag := fs.String("scale", "quick", "experiment scale: quick or full")
	seed := fs.Int64("seed", 1, "random seed")
	parallelism := fs.Int("parallelism", 1,
		"probe workers per execution (1 sequential, -1 all CPUs); counters are identical at any setting")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: m2mbench [-scale quick|full] [-seed N] [-parallelism N] <figure|all>\n\nfigures:\n")
		for _, f := range experiments.Figures {
			fmt.Fprintf(stderr, "  %-6s  %s\n", f.Name, f.Desc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}

	target, ran := fs.Arg(0), false
	for _, f := range experiments.Figures {
		if target != "all" && target != f.Name {
			continue
		}
		ran = true
		start := time.Now()
		f.Run(scale, *seed, *parallelism).Render(stdout)
		fmt.Fprintf(stdout, "  (%s completed in %v)\n\n", f.Name, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(stderr, "unknown figure %q\n", target)
		fs.Usage()
		return 2
	}
	return 0
}
