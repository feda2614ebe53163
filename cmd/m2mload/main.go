// Command m2mload is the closed-loop load generator for the query
// service, and a client of its HTTP API like any other: it registers
// the benchmark's serve mix (service.StandardMix: the snowflake32, star
// and path datasets at -rows driver rows and seeds -seed*100+1..3) on a
// running m2mserve (POST /v1/datasets, tolerating 409 so repeated runs
// against one server work), then a fixed number of clients issue
// queries back-to-back from a Zipf-skewed popularity distribution over
// the mix's 12 templates in the benchmark's rank order (auto-planned,
// BVP+COM, SJ+COM, and COM with a driver selection) and it reports
// throughput, latency percentiles and artifact-cache hit rates under
// the benchmark's metric names. With the default -rows and -seed it
// drives the datasets and templates of the benchmark's serve_*
// workloads, which `m2mserve -preload` registers; its draws and its
// HTTP transport are its own. At the end of a run it also prints the
// server's own query-latency p50/p95/p99 from GET /v1/stats beside the
// client-observed ones — the gap is client and transport overhead.
// (For in-process figures, `bash benchmark/run.sh` is the measured
// harness.)
//
// Failures are counted by class (timeout / shed / canceled / invalid /
// internal): timeouts and sheds are the service's resilience layer
// working as designed, so with -retries > 0 they are retried with
// exponential backoff (honoring the server's Retry-After hint, capped
// at the -timeout budget, jittered ±20%) and the exit status reflects
// only internal/invalid errors. Against a sharded server,
// -min-coverage accepts degraded (partial-shard-coverage) answers,
// which are tallied separately rather than counted as errors.
//
// With -mutate-qps > 0 a background writer interleaves mutation
// batches (appends plus occasional deletes of its own appends) against
// the mix's datasets at that rate, so every commit forces the artifact
// cache onto a new version's keys; the reported cache hit rate is then
// the warm-hit-rate-under-writes, a direct read on how well
// commit-time incremental repair keeps the cache warm across version
// churn.
//
// main only exits with run's status: 0 for a clean run, 1 if
// registration fails or any query failed internal or invalid, 2 on a
// bad command line.
//
// Usage:
//
//	m2mload [-addr http://127.0.0.1:8080] [-duration 10s] [-clients 4]
//	        [-rows 20000] [-seed 1] [-zipf 1.3] [-timeout 0] [-retries 0]
//	        [-min-coverage 0] [-mutate-qps 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/service"
	"m2mjoin/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, drives the server for the
// run's duration, writes the report to stdout and diagnostics to
// stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("m2mload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the m2mserve to drive")
	rows := fs.Int("rows", 20000, "driver rows per generated dataset")
	var cfg loadConfig
	fs.DurationVar(&cfg.duration, "duration", 10*time.Second, "load run length")
	fs.IntVar(&cfg.clients, "clients", 4, "closed-loop client count")
	fs.Int64Var(&cfg.seed, "seed", 1, "random seed (datasets and draws)")
	fs.Float64Var(&cfg.zipfS, "zipf", 1.3, "Zipf popularity skew exponent (>1)")
	fs.DurationVar(&cfg.queryTimeout, "timeout", 0,
		"per-query deadline stamped on every request (0 = none)")
	fs.IntVar(&cfg.maxRetries, "retries", 0,
		"retry budget per query for shed/timeout failures (exponential backoff)")
	fs.Float64Var(&cfg.minCoverage, "min-coverage", 0,
		"accept degraded results at or above this shard coverage (0 = require full)")
	fs.Float64Var(&cfg.mutateQPS, "mutate-qps", 0,
		"background write rate; measures cache hit rate under version churn (0 = reads only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ctx := context.Background()
	h := service.NewHTTPRunner(*addr)
	regs, templates := service.StandardMix(*rows, cfg.seed)
	cfg.templates, cfg.targets = templates, writeTargets(regs)
	if err := registerMix(ctx, h, regs); err != nil {
		fmt.Fprintln(stderr, "m2mload:", err)
		return 1
	}
	fmt.Fprintf(stdout, "m2mload: %d clients, %d templates, zipf s=%.2f, %v\n",
		cfg.clients, len(templates), cfg.zipfS, cfg.duration)
	report := runLoad(ctx, h, cfg)
	fmt.Fprintln(stdout, report)
	if st, err := h.Stats(ctx); err == nil {
		// The gap between the server's latency and the client-observed
		// percentiles is client/transport overhead: queueing in the HTTP
		// stack, JSON, and the wire.
		if l := st.Latency; l.Count > 0 {
			fmt.Fprintf(stdout, "server latency (/v1/stats, %d queries): p50≈%v p95≈%v p99≈%v\n", l.Count,
				l.P50.Round(time.Microsecond), l.P95.Round(time.Microsecond), l.P99.Round(time.Microsecond))
		}
		fmt.Fprintf(stdout, "service: queries=%d cache entries=%d bytes=%d/%d evictions=%d\n",
			st.Queries, st.Cache.Entries, st.Cache.Bytes, st.Cache.Limit, st.Cache.Evictions)
	}
	// Timeouts and sheds are the resilience layer doing its job under
	// overload; only engine faults (internal) and broken mixes (invalid)
	// fail the run.
	if report.errorsByClass[service.ClassInternal] > 0 || report.errorsByClass[service.ClassInvalid] > 0 {
		return 1
	}
	return 0
}

// registerMix posts the mix's datasets to the server. A 409 means an
// earlier run against the same server already registered that name, and
// is not an error.
func registerMix(ctx context.Context, h *service.HTTPRunner, regs []service.RegisterRequest) error {
	for _, reg := range regs {
		if _, status, err := h.Register(ctx, reg); err != nil && status != http.StatusConflict {
			return fmt.Errorf("registering %s: %w", reg.Name, err)
		}
	}
	return nil
}

// writeTarget names one relation the background writer mutates, with
// the arity its appended rows must carry.
type writeTarget struct {
	dataset, relation string
	arity             int
}

// writeTargets lists every relation of the generated datasets regs
// describe. workload.Generate's column conventions are fixed by the
// join tree alone (id, v, the relation's own key column when non-root,
// and one key column per child), so valid appends are synthesized from
// the registration requests without fetching any data. regs come from
// service.StandardMix, whose shapes are workload.Named's own.
func writeTargets(regs []service.RegisterRequest) []writeTarget {
	var out []writeTarget
	for _, reg := range regs {
		tree, err := workload.Named(reg.Shape)
		if err != nil {
			panic(err)
		}
		for i := 0; i < tree.Len(); i++ {
			id := plan.NodeID(i)
			arity := 2 + len(tree.Children(id))
			if id != plan.Root {
				arity++
			}
			out = append(out, writeTarget{dataset: reg.Name, relation: tree.Name(id), arity: arity})
		}
	}
	return out
}
