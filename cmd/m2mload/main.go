// Command m2mload is the closed-loop load generator for the query
// service: a fixed number of clients issue queries back-to-back from a
// Zipf-skewed popularity distribution over a mixed-shape template set
// (auto-planned, fixed-strategy, selection and SJ variants), then
// report throughput, latency percentiles and artifact-cache hit rates.
// At the end of a run it also reads the service's own query-latency
// histogram (from the in-process telemetry registry, or by scraping
// GET /metrics against -addr) and prints the server-side p50/p95/p99
// beside the client-observed ones — the gap is client and transport
// overhead.
//
// By default it builds an in-process service (no server needed — this
// is the one-command way to see the executor under concurrent repeated
// traffic); with -addr it drives a running m2mserve over HTTP,
// registering its datasets through the API first.
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
//	m2mload [-duration 10s] [-clients 4] [-rows 5000] [-seed 1]
//	        [-zipf 1.3] [-cache-bytes N] [-parallelism N] [-addr URL]
//	        [-timeout 0] [-retries 0] [-min-coverage 0] [-mutate-qps 0]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"m2mjoin/internal/service"
	"m2mjoin/internal/telemetry"
)

func main() {
	duration := flag.Duration("duration", 10*time.Second, "load run length")
	clients := flag.Int("clients", 4, "closed-loop client count")
	rows := flag.Int("rows", 5000, "driver rows per generated dataset")
	seed := flag.Int64("seed", 1, "random seed (datasets and draws)")
	zipfS := flag.Float64("zipf", 1.3, "Zipf popularity skew exponent (>1)")
	cacheBytes := flag.Int64("cache-bytes", service.DefaultCacheBytes,
		"artifact cache budget (in-process mode)")
	parallelism := flag.Int("parallelism", 0,
		"service worker budget (in-process mode, 0 = all CPUs)")
	addr := flag.String("addr", "",
		"drive a running m2mserve at this base URL instead of in-process")
	queryTimeout := flag.Duration("timeout", 0,
		"per-query deadline stamped on every request (0 = none)")
	retries := flag.Int("retries", 0,
		"retry budget per query for shed/timeout failures (exponential backoff)")
	minCoverage := flag.Float64("min-coverage", 0,
		"accept degraded results at or above this shard coverage (0 = require full)")
	mutateQPS := flag.Float64("mutate-qps", 0,
		"background write rate; measures cache hit rate under version churn (0 = reads only)")
	sharedScan := flag.Bool("shared-scan", false,
		"enable shared-scan batching (in-process mode; against -addr the server's own flag decides)")
	attachWindow := flag.Duration("attach-window", 0,
		"shared-scan attach window (0 = service default)")
	flag.Parse()

	var (
		runner    service.Runner
		templates []service.Request
		statsFn   func() (service.Stats, error)
		metricsFn func() ([]telemetry.Sample, error)
		err       error
	)
	if *addr == "" {
		svc := service.New(service.Config{
			CacheBytes:  *cacheBytes,
			Parallelism: *parallelism,
			SharedScan: service.SharedScanConfig{
				Enabled:      *sharedScan,
				AttachWindow: *attachWindow,
			},
		})
		templates, err = service.StandardMix(svc, *rows, *seed)
		runner = svc
		statsFn = func() (service.Stats, error) { return svc.Stats(), nil }
		metricsFn = func() ([]telemetry.Sample, error) {
			var buf bytes.Buffer
			if err := svc.Registry().WritePrometheus(&buf); err != nil {
				return nil, err
			}
			return telemetry.ParseText(&buf)
		}
	} else {
		h := service.NewHTTPRunner(*addr)
		templates, err = remoteStandardMix(h, *rows, *seed)
		runner = h
		statsFn = func() (service.Stats, error) { return h.Stats(context.Background()) }
		metricsFn = func() ([]telemetry.Sample, error) { return scrapeMetrics(*addr) }
	}
	if err != nil {
		fatal(err)
	}
	var targets []service.MutateTarget
	if *mutateQPS > 0 {
		if targets, err = mixMutateTargets(*seed); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("m2mload: %d clients, %d templates, zipf s=%.2f, %v\n",
		*clients, len(templates), *zipfS, *duration)
	report, err := service.RunLoad(context.Background(), runner, service.LoadConfig{
		Duration:      *duration,
		Clients:       *clients,
		Templates:     templates,
		ZipfS:         *zipfS,
		Seed:          *seed,
		QueryTimeout:  *queryTimeout,
		MaxRetries:    *retries,
		MinCoverage:   *minCoverage,
		MutateQPS:     *mutateQPS,
		MutateTargets: targets,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(report)
	// Fold the server-side latency histogram (the service's own
	// m2m_query_duration_seconds, scraped from /metrics or read from the
	// in-process registry) into the report next to the client-observed
	// percentiles: the gap between the two is pure client/transport
	// overhead — queueing in the HTTP stack, JSON, and the wire.
	if samples, err := metricsFn(); err == nil {
		qs, n := telemetry.HistogramQuantiles(samples,
			"m2m_query_duration_seconds", []float64{0.5, 0.95, 0.99})
		if n > 0 {
			fmt.Printf("server latency (/metrics histogram, %d obs): p50≈%v p95≈%v p99≈%v\n",
				n, qs[0].Round(time.Microsecond), qs[1].Round(time.Microsecond),
				qs[2].Round(time.Microsecond))
		}
	}
	if st, err := statsFn(); err == nil {
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
	if report.ErrorsByClass.Internal > 0 || report.ErrorsByClass.Invalid > 0 {
		os.Exit(1)
	}
}

// remoteStandardMix mirrors service.StandardMix over the HTTP API:
// register the mixed-shape datasets remotely (tolerating
// already-registered conflicts so repeated runs against one server
// work) and return the same template list.
func remoteStandardMix(h *service.HTTPRunner, rows int, seed int64) ([]service.Request, error) {
	// Build the same mix locally to learn dataset names and driver
	// relation names, then mirror the registrations remotely.
	local := service.New(service.Config{Parallelism: 1, MaxConcurrent: 1})
	templates, err := service.StandardMix(local, rows, seed)
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	i := int64(0)
	for _, tpl := range templates {
		if seen[tpl.Dataset] {
			continue
		}
		seen[tpl.Dataset] = true
		_, status, err := h.Register(context.Background(), service.RegisterRequest{
			Name:  tpl.Dataset,
			Shape: strings.TrimPrefix(tpl.Dataset, "load_"),
			Rows:  rows,
			Seed:  seed + i,
		})
		if err != nil && status != http.StatusConflict {
			return nil, fmt.Errorf("registering %s: %w", tpl.Dataset, err)
		}
		i++
	}
	return templates, nil
}

// mixMutateTargets derives background-writer targets for every dataset
// StandardMix registers. The shapes fix each relation's arity through
// workload.Generate's column conventions, so this works identically
// in-process and against a remote server — no data access needed.
func mixMutateTargets(seed int64) ([]service.MutateTarget, error) {
	shapes := []string{"snowflake32", "star", "path"}
	var out []service.MutateTarget
	for i, shape := range shapes {
		tree, err := service.BuildTree(shape, seed+int64(i))
		if err != nil {
			return nil, err
		}
		out = append(out, service.MutateTargetsFor("load_"+shape, tree)...)
	}
	return out, nil
}

// scrapeMetrics pulls a remote server's /metrics exposition and parses
// it into samples.
func scrapeMetrics(addr string) ([]telemetry.Sample, error) {
	resp, err := http.Get(strings.TrimSuffix(addr, "/") + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	return telemetry.ParseText(resp.Body)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "m2mload:", err)
	os.Exit(1)
}
