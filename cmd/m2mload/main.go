// Command m2mload is the closed-loop load generator for the query
// service, and a client of its HTTP API like any other: it registers
// the standard mixed-shape datasets on a running m2mserve (POST
// /v1/datasets, tolerating 409 so repeated runs against one server
// work), then a fixed number of clients issue queries back-to-back
// from a Zipf-skewed popularity distribution over the mix's templates
// (auto-planned, fixed-strategy, selection and SJ variants) and it
// reports throughput, latency percentiles and artifact-cache hit
// rates. At the end of a run it also scrapes the server's own
// query-latency histogram from GET /metrics and prints the server-side
// p50/p95/p99 beside the client-observed ones — the gap is client and
// transport overhead. (For in-process figures, `bash benchmark/run.sh`
// is the measured harness.)
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
// Usage:
//
//	m2mload [-addr http://127.0.0.1:8080] [-duration 10s] [-clients 4]
//	        [-rows 5000] [-seed 1] [-zipf 1.3] [-timeout 0] [-retries 0]
//	        [-min-coverage 0] [-mutate-qps 0]
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/service"
	"m2mjoin/internal/telemetry"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "base URL of the m2mserve to drive")
	duration := flag.Duration("duration", 10*time.Second, "load run length")
	clients := flag.Int("clients", 4, "closed-loop client count")
	rows := flag.Int("rows", 5000, "driver rows per generated dataset")
	seed := flag.Int64("seed", 1, "random seed (datasets and draws)")
	zipfS := flag.Float64("zipf", 1.3, "Zipf popularity skew exponent (>1)")
	queryTimeout := flag.Duration("timeout", 0,
		"per-query deadline stamped on every request (0 = none)")
	retries := flag.Int("retries", 0,
		"retry budget per query for shed/timeout failures (exponential backoff)")
	minCoverage := flag.Float64("min-coverage", 0,
		"accept degraded results at or above this shard coverage (0 = require full)")
	mutateQPS := flag.Float64("mutate-qps", 0,
		"background write rate; measures cache hit rate under version churn (0 = reads only)")
	flag.Parse()

	ctx := context.Background()
	h := service.NewHTTPRunner(*addr)
	regs, templates := service.StandardMix(*rows, *seed)
	if err := registerMix(ctx, h, regs); err != nil {
		fatal(err)
	}
	targets, err := writeTargets(regs)
	if err != nil {
		fatal(err)
	}
	cfg := loadConfig{
		duration:     *duration,
		clients:      *clients,
		templates:    templates,
		zipfS:        *zipfS,
		seed:         *seed,
		queryTimeout: *queryTimeout,
		maxRetries:   *retries,
		minCoverage:  *minCoverage,
		mutateQPS:    *mutateQPS,
		targets:      targets,
	}

	fmt.Printf("m2mload: %d clients, %d templates, zipf s=%.2f, %v\n",
		*clients, len(templates), *zipfS, *duration)
	report := runLoad(ctx, h, cfg)
	fmt.Println(report)
	// Fold the server-side latency histogram into the report next to the
	// client-observed percentiles: the gap between the two is pure
	// client/transport overhead — queueing in the HTTP stack, JSON, and
	// the wire.
	if qs, n, err := serverLatency(h.Base()); err == nil && n > 0 {
		fmt.Printf("server latency (/metrics histogram, %d obs): p50≈%v p95≈%v p99≈%v\n",
			n, qs[0].Round(time.Microsecond), qs[1].Round(time.Microsecond),
			qs[2].Round(time.Microsecond))
	}
	if st, err := h.Stats(ctx); err == nil {
		fmt.Printf("service: queries=%d cache entries=%d bytes=%d/%d evictions=%d\n",
			st.Queries, st.Cache.Entries, st.Cache.Bytes, st.Cache.Limit, st.Cache.Evictions)
		if st.SharedScans > 0 {
			fmt.Printf("service shared scans: passes=%d members=%d (%d driver scans saved)\n",
				st.SharedScans, st.SharedScanMembers, st.SharedScanMembers-st.SharedScans)
		}
	}
	// Timeouts and sheds are the resilience layer doing its job under
	// overload; only engine faults (internal) and broken mixes (invalid)
	// fail the run.
	if report.errorsByClass[service.ClassInternal] > 0 || report.errorsByClass[service.ClassInvalid] > 0 {
		os.Exit(1)
	}
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
// the registration requests without fetching any data.
func writeTargets(regs []service.RegisterRequest) ([]writeTarget, error) {
	var out []writeTarget
	for _, reg := range regs {
		tree, err := plan.ShapeByName(reg.Shape, plan.FixedStats(1, 1))
		if err != nil {
			return nil, err
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
	return out, nil
}

// serverLatency scrapes the server's /metrics exposition and estimates
// p50/p95/p99 of its m2m_query_duration_seconds histogram; n is the
// histogram's observation count.
func serverLatency(base string) (qs []time.Duration, n int64, err error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	samples, err := telemetry.ParseText(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	qs, n = telemetry.HistogramQuantiles(samples, "m2m_query_duration_seconds", []float64{0.5, 0.95, 0.99})
	return qs, n, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "m2mload:", err)
	os.Exit(1)
}
