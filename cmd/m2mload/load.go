package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"m2mjoin/internal/service"
)

// This file is the closed-loop generator itself: a fixed number of
// clients each issue their next query as soon as the previous one
// returns, drawing query templates from a Zipf-skewed popularity
// distribution — the repeated-query, multi-tenant traffic shape the
// artifact cache exists for. Popular templates re-hit their cached
// artifacts; the skew tail keeps generating misses, so a run exercises
// mixed hit/miss traffic, admission queueing and concurrent probing of
// shared structures.

// loadConfig configures one load run; the fields mirror m2mload's flags.
type loadConfig struct {
	duration time.Duration
	clients  int
	// templates is the query mix; template i's popularity follows a
	// Zipf distribution over the slice order (earlier = more popular)
	// with skew exponent zipfS (> 1).
	templates []service.Request
	zipfS     float64
	// seed makes template draws deterministic per client.
	seed int64
	// queryTimeout, when nonzero, is stamped onto every request as its
	// per-query deadline (Request.TimeoutMillis).
	queryTimeout time.Duration
	// maxRetries bounds how many times one query is retried after a
	// retryable failure (shed or timeout); see queryWithRetry.
	maxRetries int
	// minCoverage, when positive, is stamped onto every request: on a
	// sharded server, degraded results at or above this coverage count
	// as successes (tallied in loadReport.degraded) instead of errors.
	minCoverage float64
	// mutateQPS, when positive, runs one background writer alongside
	// the read clients, committing seeded mutation batches against
	// targets at this rate (see runMutateWriter) — the write
	// interleaving that measures the cache's warm hit rate under
	// version churn.
	mutateQPS float64
	targets   []writeTarget
}

// loadReport aggregates a load run.
type loadReport struct {
	queries, errors    int64
	duration           time.Duration
	p50, p95, p99, max time.Duration
	// errorsByClass breaks errors down by failure class. Only internal
	// (and invalid, which indicates a broken mix) represent engine
	// trouble; timeouts and sheds are the resilience layer doing its
	// job under overload. retries counts re-issues that followed a
	// retryable failure: a query that eventually succeeded after
	// retries contributes to retries but not to errors.
	errorsByClass map[service.Class]int64
	retries       int64
	// degraded counts successful queries answered with partial shard
	// coverage (Result.Coverage < 1 under loadConfig.minCoverage).
	degraded int64
	// mutations counts committed background-writer batches and
	// mutationErrors its failures; when either is nonzero the cache hit
	// rate below was measured under writes.
	mutations, mutationErrors int64
	// cacheHits/cacheMisses sum the per-query artifact counters across
	// all successful queries; outputTuples sums emitted result tuples
	// (a cheap integrity pulse: zero everywhere usually means a broken
	// mix).
	cacheHits, cacheMisses, outputTuples int64
}

// runLoad drives the server behind h with cfg.clients closed-loop
// workers for cfg.duration and aggregates latency and cache statistics.
// It returns early (with the partial report) if ctx is cancelled.
func runLoad(ctx context.Context, h *service.HTTPRunner, cfg loadConfig) loadReport {
	if cfg.clients <= 0 {
		cfg.clients = 4
	}
	if cfg.zipfS <= 1 {
		cfg.zipfS = 1.3
	}
	runCtx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()

	report := loadReport{errorsByClass: map[service.Class]int64{}}
	var wg sync.WaitGroup
	if cfg.mutateQPS > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			report.mutations, report.mutationErrors = runMutateWriter(runCtx, h, cfg)
		}()
	}

	type clientAgg struct {
		latencies            []time.Duration
		errorsByClass        map[service.Class]int64
		retries, degraded    int64
		hits, misses, tuples int64
	}
	aggs := make([]clientAgg, cfg.clients)
	start := time.Now()
	for ci := range aggs {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			agg := &aggs[ci]
			agg.errorsByClass = map[service.Class]int64{}
			rng := rand.New(rand.NewSource(cfg.seed + int64(ci)*1000003))
			zipf := rand.NewZipf(rng, cfg.zipfS, 1, uint64(len(cfg.templates)-1))
			for runCtx.Err() == nil {
				req := cfg.templates[zipf.Uint64()]
				if cfg.queryTimeout > 0 {
					req.TimeoutMillis = cfg.queryTimeout.Milliseconds()
				}
				if cfg.minCoverage > 0 {
					req.MinCoverage = cfg.minCoverage
				}
				t0 := time.Now()
				res, err := queryWithRetry(runCtx, h, req, cfg, rng, &agg.retries)
				if err != nil {
					// The deadline firing mid-query is the normal end of
					// a closed loop, not a workload error.
					if runCtx.Err() == nil {
						agg.errorsByClass[service.Classify(err)]++
					}
					continue
				}
				agg.latencies = append(agg.latencies, time.Since(t0))
				if res.Coverage > 0 && res.Coverage < 1 {
					agg.degraded++
				}
				agg.hits += res.Stats.CacheHits
				agg.misses += res.Stats.CacheMisses
				agg.tuples += res.Stats.OutputTuples
			}
		}(ci)
	}
	wg.Wait()
	report.duration = time.Since(start)

	var all []time.Duration
	for i := range aggs {
		all = append(all, aggs[i].latencies...)
		for cls, n := range aggs[i].errorsByClass {
			report.errorsByClass[cls] += n
			report.errors += n
		}
		report.retries += aggs[i].retries
		report.degraded += aggs[i].degraded
		report.cacheHits += aggs[i].hits
		report.cacheMisses += aggs[i].misses
		report.outputTuples += aggs[i].tuples
	}
	report.queries = int64(len(all))
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(p float64) time.Duration { return all[int(p*float64(len(all)-1))] }
		report.p50, report.p95, report.p99, report.max = pct(0.50), pct(0.95), pct(0.99), pct(1)
	}
	return report
}

// runMutateWriter is the background write loop behind
// loadConfig.mutateQPS: at a fixed cadence it commits one small batch
// against a random target — one to three appended rows, plus (about
// half the time) a delete of one row it appended earlier. The stream is
// deterministic for a given seed and target list.
//
// Appended values are negative, and workload.Generate only emits
// non-negative values, so writer rows never join with resident data:
// every committed version changes the dataset's lineage fingerprint
// (forcing the cache onto new keys, which is the churn being measured)
// without perturbing query results, keeping the read mix's checksums
// comparable across a run. Deletes target only the writer's own
// appends, located from MutateResult.Rows — physical rows are never
// renumbered across versions, so the indices stay valid until the
// writer deletes them.
func runMutateWriter(ctx context.Context, h *service.HTTPRunner, cfg loadConfig) (mutations, errors int64) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5bd1e995))
	interval := time.Duration(float64(time.Second) / cfg.mutateQPS)
	if interval <= 0 {
		interval = time.Millisecond
	}
	// mine[i] holds row indices the writer appended to target i and has
	// not yet deleted.
	mine := make([][]int, len(cfg.targets))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return mutations, errors
		case <-ticker.C:
		}
		ti := rng.Intn(len(cfg.targets))
		t := cfg.targets[ti]
		nAppend := 1 + rng.Intn(3)
		ops := make([]service.MutationSpec, 0, nAppend+1)
		for i := 0; i < nAppend; i++ {
			vals := make([]int64, t.arity)
			for j := range vals {
				vals[j] = -(1 + rng.Int63n(1<<40))
			}
			ops = append(ops, service.MutationSpec{Op: "append", Relation: t.relation, Values: vals})
		}
		if len(mine[ti]) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(mine[ti]))
			row := mine[ti][k]
			mine[ti] = append(mine[ti][:k], mine[ti][k+1:]...)
			ops = append(ops, service.MutationSpec{Op: "delete", Relation: t.relation, Row: row})
		}
		res, err := h.Mutate(ctx, service.MutateRequest{Dataset: t.dataset, Ops: ops})
		if err != nil {
			if ctx.Err() == nil {
				errors++
			}
			continue
		}
		mutations++
		// The new appends occupy the tail of the relation's physical row
		// space; remember them as future delete candidates.
		if n, ok := res.Rows[t.relation]; ok {
			for r := n - nAppend; r < n; r++ {
				mine[ti] = append(mine[ti], r)
			}
		}
	}
}

// retryBase and retryMax shape the exponential backoff between a load
// client's retries.
const (
	retryBase = 10 * time.Millisecond
	retryMax  = time.Second
)

// queryWithRetry issues one query, retrying retryable failures (shed,
// timeout) up to cfg.maxRetries times with exponential backoff;
// invalid, canceled and internal errors are never retried. The server's
// Retry-After hint, when present and longer than the computed backoff,
// wins — but is capped at the per-query timeout budget, since an
// overloaded server's hint can exceed what any fresh attempt would be
// allowed to spend. Backoff is jittered ±20% so retries from concurrent
// clients decorrelate instead of stampeding a recovering server in
// lockstep. Non-retryable failures and run-deadline expiry return
// immediately.
func queryWithRetry(ctx context.Context, h *service.HTTPRunner, req service.Request, cfg loadConfig, rng *rand.Rand, retries *int64) (service.Result, error) {
	backoff := retryBase
	for attempt := 0; ; attempt++ {
		res, err := h.Query(ctx, req)
		if err == nil || attempt >= cfg.maxRetries ||
			!service.Retryable(service.Classify(err)) || ctx.Err() != nil {
			return res, err
		}
		wait := backoff
		if hint := service.RetryAfterHint(err); hint > wait {
			if cfg.queryTimeout > 0 && hint > cfg.queryTimeout {
				hint = cfg.queryTimeout
			}
			if hint > wait {
				wait = hint
			}
		}
		// Jitter ±20%.
		wait += time.Duration((rng.Float64() - 0.5) * 0.4 * float64(wait))
		select {
		case <-ctx.Done():
			return res, err
		case <-time.After(wait):
		}
		*retries++
		if backoff *= 2; backoff > retryMax {
			backoff = retryMax
		}
	}
}

// String renders the report as the m2mload summary block. The
// end-to-end figures carry the benchmark's metric names
// (throughput_qps, ok_ratio, query_p50_ms, query_p95_ms,
// output_tuples_per_s), measured at the client.
func (r loadReport) String() string {
	hitRate := 0.0
	if r.cacheHits+r.cacheMisses > 0 {
		hitRate = float64(r.cacheHits) / float64(r.cacheHits+r.cacheMisses)
	}
	secs := max(r.duration.Seconds(), 1e-9)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	e := r.errorsByClass
	out := fmt.Sprintf(
		"queries=%d errors=%d retries=%d degraded=%d elapsed=%v throughput_qps=%.1f ok_ratio=%.4f\n"+
			"errors by class: timeout=%d shed=%d canceled=%d invalid=%d internal=%d\n"+
			"latency query_p50_ms=%.3f query_p95_ms=%.3f p99_ms=%.3f max_ms=%.3f\n"+
			"artifact cache: hits=%d misses=%d hit-rate=%.1f%%\n"+
			"output tuples: %d output_tuples_per_s=%.0f",
		r.queries, r.errors, r.retries, r.degraded, r.duration.Round(time.Millisecond),
		float64(r.queries)/secs, float64(r.queries)/float64(max(r.queries+r.errors, 1)),
		e[service.ClassTimeout], e[service.ClassShed], e[service.ClassCanceled],
		e[service.ClassInvalid], e[service.ClassInternal],
		ms(r.p50), ms(r.p95), ms(r.p99), ms(r.max),
		r.cacheHits, r.cacheMisses, 100*hitRate, r.outputTuples, float64(r.outputTuples)/secs)
	if r.mutations+r.mutationErrors > 0 {
		out += fmt.Sprintf("\nmutations: committed=%d errors=%d (hit rate above measured under writes)",
			r.mutations, r.mutationErrors)
	}
	return out
}
