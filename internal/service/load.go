package service

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"m2mjoin/internal/plan"
)

// This file is the closed-loop load generator behind cmd/m2mload: a
// fixed number of clients each issue their next query as soon as the
// previous one returns, drawing query templates from a Zipf-skewed
// popularity distribution — the repeated-query, multi-tenant traffic
// shape the artifact cache exists for. Popular templates re-hit their
// cached artifacts; the skew tail keeps generating misses, so a run
// exercises mixed hit/miss traffic, admission queueing and concurrent
// probing of shared structures.

// Runner abstracts the query target so the generator drives either an
// in-process *Service or a remote m2mserve over HTTP.
type Runner interface {
	Query(ctx context.Context, req Request) (Result, error)
}

// Mutator is the optional write side of a Runner; both *Service and
// *HTTPRunner implement it. LoadConfig.MutateQPS needs it.
type Mutator interface {
	Mutate(ctx context.Context, req MutateRequest) (MutateResult, error)
}

// MutateTarget names one relation the background writer mutates, with
// the arity its appended rows must carry.
type MutateTarget struct {
	Dataset  string `json:"dataset"`
	Relation string `json:"relation"`
	Arity    int    `json:"arity"`
}

// MutateTargetsFor derives background-writer targets for a dataset
// generated by workload.Generate, whose column conventions are fixed
// by the join tree alone (id, v, the relation's own key column when
// non-root, and one key column per child) — so a remote load driver
// can synthesize valid appends from the registration spec without
// fetching any data.
func MutateTargetsFor(dataset string, tree *plan.Tree) []MutateTarget {
	out := make([]MutateTarget, 0, tree.Len())
	for i := 0; i < tree.Len(); i++ {
		id := plan.NodeID(i)
		arity := 2 + len(tree.Children(id))
		if id != plan.Root {
			arity++
		}
		out = append(out, MutateTarget{Dataset: dataset, Relation: tree.Name(id), Arity: arity})
	}
	return out
}

// LoadConfig configures one load run.
type LoadConfig struct {
	// Duration is the wall-time budget (default 5s).
	Duration time.Duration
	// Clients is the number of closed-loop workers (default 4).
	Clients int
	// Templates is the query mix; template i's popularity follows a
	// Zipf distribution over the slice order (earlier = more popular).
	Templates []Request
	// ZipfS is the Zipf skew exponent (> 1; default 1.3).
	ZipfS float64
	// Seed makes template draws deterministic per client.
	Seed int64
	// QueryTimeout, when nonzero, is stamped onto every request as its
	// per-query deadline (Request.TimeoutMillis).
	QueryTimeout time.Duration
	// MaxRetries bounds how many times one query is retried after a
	// retryable failure (shed or timeout; default 0 = no retries).
	// Invalid, canceled and internal errors are never retried. The
	// backoff between retries doubles from 10ms up to 1s; a server
	// Retry-After hint overrides it when longer, capped at QueryTimeout
	// — a fresh attempt could not spend more than that anyway.
	MaxRetries int
	// MinCoverage, when positive, is stamped onto every request: on a
	// sharded server, degraded results at or above this coverage count
	// as successes (tallied in LoadReport.Degraded) instead of errors.
	MinCoverage float64
	// MutateQPS, when positive, runs one background writer alongside
	// the read clients, committing seeded mutation batches (appends,
	// plus occasional deletes of its own earlier appends) against
	// MutateTargets at this rate — the write interleaving that measures
	// the cache's warm hit rate under version churn. Requires the
	// Runner to implement Mutator.
	MutateQPS float64
	// MutateTargets are the relations the writer draws from (see
	// MutateTargetsFor). Required when MutateQPS > 0.
	MutateTargets []MutateTarget
}

// ErrorBreakdown counts one load run's failures by class. Only
// Internal (and Invalid, which indicates a broken mix) represent
// engine trouble; timeouts and sheds are the resilience layer doing
// its job under overload.
type ErrorBreakdown struct {
	Timeout  int64 `json:"timeout,omitempty"`
	Shed     int64 `json:"shed,omitempty"`
	Canceled int64 `json:"canceled,omitempty"`
	Invalid  int64 `json:"invalid,omitempty"`
	Internal int64 `json:"internal,omitempty"`
}

func (b *ErrorBreakdown) add(o ErrorBreakdown) {
	b.Timeout += o.Timeout
	b.Shed += o.Shed
	b.Canceled += o.Canceled
	b.Invalid += o.Invalid
	b.Internal += o.Internal
}

func (b *ErrorBreakdown) record(cls Class) {
	switch cls {
	case ClassTimeout:
		b.Timeout++
	case ClassShed:
		b.Shed++
	case ClassCanceled:
		b.Canceled++
	case ClassInvalid:
		b.Invalid++
	default:
		b.Internal++
	}
}

// LoadReport aggregates a load run.
type LoadReport struct {
	Queries  int64         `json:"queries"`
	Errors   int64         `json:"errors"`
	Duration time.Duration `json:"durationNs"`
	QPS      float64       `json:"qps"`
	P50      time.Duration `json:"p50Ns"`
	P95      time.Duration `json:"p95Ns"`
	P99      time.Duration `json:"p99Ns"`
	Max      time.Duration `json:"maxNs"`
	// ErrorsByClass breaks Errors down by failure class; Retries counts
	// re-issues that followed a retryable (shed/timeout) failure. A
	// query that eventually succeeded after retries contributes to
	// Retries but not to Errors.
	ErrorsByClass ErrorBreakdown `json:"errorsByClass"`
	Retries       int64          `json:"retries"`
	// Degraded counts successful queries answered with partial shard
	// coverage (Result.Coverage < 1 under LoadConfig.MinCoverage).
	Degraded int64 `json:"degraded,omitempty"`
	// Mutations counts committed background-writer batches and
	// MutationErrors its failures (LoadConfig.MutateQPS); when either
	// is nonzero the cache hit rate below was measured under writes.
	Mutations      int64 `json:"mutations,omitempty"`
	MutationErrors int64 `json:"mutationErrors,omitempty"`
	// SharedScanQueries counts successful queries served through a
	// shared driver scan; SharedScanAttached counts those whose pass had
	// other members (Result.Batch > 1). AttachRate is Attached over all
	// successful queries, and the AttachWait percentiles summarize the
	// queue-to-attach latency (Result.AttachWait) of shared queries.
	SharedScanQueries  int64         `json:"sharedScanQueries,omitempty"`
	SharedScanAttached int64         `json:"sharedScanAttached,omitempty"`
	AttachRate         float64       `json:"attachRate,omitempty"`
	AttachWaitP50      time.Duration `json:"attachWaitP50Ns,omitempty"`
	AttachWaitP95      time.Duration `json:"attachWaitP95Ns,omitempty"`
	// CacheHits/CacheMisses sum the per-query artifact counters across
	// all issued queries.
	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
	// OutputTuples sums emitted result tuples (a cheap integrity pulse:
	// zero everywhere usually means a broken mix).
	OutputTuples int64 `json:"outputTuples"`
}

// StandardMix registers a mixed-shape set of generated datasets on the
// service and returns a template list over them: per dataset an
// auto-planned query, two fixed-strategy queries (one build-bound, one
// SJ, which shares its unreduced tables and rebuilds the reduced ones
// per query), and a driver-selection variant.
func StandardMix(s *Service, rows int, seed int64) ([]Request, error) {
	if rows <= 0 {
		rows = 5000
	}
	shapes := []string{"snowflake32", "star", "path"}
	var templates []Request
	for i, shape := range shapes {
		name := fmt.Sprintf("load_%s", shape)
		if _, err := s.RegisterGenerated(GenerateSpec{
			Name: name, Shape: shape, Rows: rows, Seed: seed + int64(i),
		}); err != nil {
			return nil, err
		}
		driver := s.entry(name).ds.Tree.Name(0)
		templates = append(templates,
			Request{Dataset: name},
			Request{Dataset: name, Strategy: "BVP+COM"},
			Request{Dataset: name, Strategy: "SJ+COM"},
			Request{Dataset: name, Strategy: "COM", Selections: []SelectionSpec{
				{Relation: driver, Column: "id", Value: int64(i)},
			}},
		)
	}
	return templates, nil
}

// RunLoad drives the runner with cfg.Clients closed-loop workers for
// cfg.Duration and aggregates latency and cache statistics. It returns
// early (with the partial report) if ctx is cancelled.
func RunLoad(ctx context.Context, r Runner, cfg LoadConfig) (LoadReport, error) {
	if len(cfg.Templates) == 0 {
		return LoadReport{}, fmt.Errorf("service: load run needs at least one template")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.3
	}
	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var mutations, mutationErrors int64
	var writerWG sync.WaitGroup
	if cfg.MutateQPS > 0 {
		m, ok := r.(Mutator)
		if !ok {
			return LoadReport{}, fmt.Errorf("service: MutateQPS set but runner cannot mutate")
		}
		if len(cfg.MutateTargets) == 0 {
			return LoadReport{}, fmt.Errorf("service: MutateQPS set but no MutateTargets")
		}
		writerWG.Add(1)
		go func() {
			defer writerWG.Done()
			mutations, mutationErrors = runMutateWriter(runCtx, m, cfg)
		}()
	}

	type clientAgg struct {
		latencies            []time.Duration
		errors               int64
		breakdown            ErrorBreakdown
		retries              int64
		degraded             int64
		hits, misses, tuples int64
		shared, attached     int64
		attachWaits          []time.Duration
	}
	aggs := make([]clientAgg, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			agg := &aggs[ci]
			rng := rand.New(rand.NewSource(cfg.Seed + int64(ci)*1000003))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(cfg.Templates)-1))
			for runCtx.Err() == nil {
				req := cfg.Templates[zipf.Uint64()]
				if cfg.QueryTimeout > 0 {
					req.TimeoutMillis = cfg.QueryTimeout.Milliseconds()
				}
				if cfg.MinCoverage > 0 {
					req.MinCoverage = cfg.MinCoverage
				}
				t0 := time.Now()
				res, err := queryWithRetry(runCtx, r, req, cfg, rng, &agg.retries)
				if err != nil {
					// The deadline firing mid-query is the normal end of
					// a closed loop, not a workload error.
					if runCtx.Err() == nil {
						agg.errors++
						agg.breakdown.record(Classify(err))
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
				if res.Batch > 0 {
					agg.shared++
					agg.attachWaits = append(agg.attachWaits, res.AttachWait)
					if res.Batch > 1 {
						agg.attached++
					}
				}
			}
		}(ci)
	}
	wg.Wait()
	writerWG.Wait()
	elapsed := time.Since(start)

	var report LoadReport
	report.Mutations = mutations
	report.MutationErrors = mutationErrors
	var all []time.Duration
	var waits []time.Duration
	for i := range aggs {
		all = append(all, aggs[i].latencies...)
		report.Errors += aggs[i].errors
		report.ErrorsByClass.add(aggs[i].breakdown)
		report.Retries += aggs[i].retries
		report.Degraded += aggs[i].degraded
		report.CacheHits += aggs[i].hits
		report.CacheMisses += aggs[i].misses
		report.OutputTuples += aggs[i].tuples
		report.SharedScanQueries += aggs[i].shared
		report.SharedScanAttached += aggs[i].attached
		waits = append(waits, aggs[i].attachWaits...)
	}
	report.Queries = int64(len(all))
	report.Duration = elapsed
	if elapsed > 0 {
		report.QPS = float64(report.Queries) / elapsed.Seconds()
	}
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		pct := func(p float64) time.Duration {
			i := int(p * float64(len(all)-1))
			return all[i]
		}
		report.P50 = pct(0.50)
		report.P95 = pct(0.95)
		report.P99 = pct(0.99)
		report.Max = all[len(all)-1]
	}
	if report.Queries > 0 {
		report.AttachRate = float64(report.SharedScanAttached) / float64(report.Queries)
	}
	if len(waits) > 0 {
		sort.Slice(waits, func(i, j int) bool { return waits[i] < waits[j] })
		report.AttachWaitP50 = waits[int(0.50*float64(len(waits)-1))]
		report.AttachWaitP95 = waits[int(0.95*float64(len(waits)-1))]
	}
	return report, nil
}

// runMutateWriter is the background write loop behind
// LoadConfig.MutateQPS: at a fixed cadence it commits one small batch
// against a random MutateTarget — one to three appended rows, plus
// (about half the time) a delete of one row it appended earlier. The
// stream is deterministic for a given seed and target list.
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
func runMutateWriter(ctx context.Context, m Mutator, cfg LoadConfig) (mutations, errors int64) {
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5bd1e995))
	interval := time.Duration(float64(time.Second) / cfg.MutateQPS)
	if interval <= 0 {
		interval = time.Millisecond
	}
	// mine[i] holds row indices the writer appended to target i and has
	// not yet deleted.
	mine := make([][]int, len(cfg.MutateTargets))
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return mutations, errors
		case <-ticker.C:
		}
		ti := rng.Intn(len(cfg.MutateTargets))
		t := cfg.MutateTargets[ti]
		nAppend := 1 + rng.Intn(3)
		ops := make([]MutationSpec, 0, nAppend+1)
		for i := 0; i < nAppend; i++ {
			vals := make([]int64, t.Arity)
			for j := range vals {
				vals[j] = -(1 + rng.Int63n(1<<40))
			}
			ops = append(ops, MutationSpec{Op: "append", Relation: t.Relation, Values: vals})
		}
		if len(mine[ti]) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(mine[ti]))
			row := mine[ti][k]
			mine[ti] = append(mine[ti][:k], mine[ti][k+1:]...)
			ops = append(ops, MutationSpec{Op: "delete", Relation: t.Relation, Row: row})
		}
		res, err := m.Mutate(ctx, MutateRequest{Dataset: t.Dataset, Ops: ops})
		if err != nil {
			if ctx.Err() == nil {
				errors++
			}
			continue
		}
		mutations++
		// The new appends occupy the tail of the relation's physical row
		// space; remember them as future delete candidates.
		if n, ok := res.Rows[t.Relation]; ok {
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
// timeout) up to cfg.MaxRetries times with exponential backoff. The
// server's Retry-After hint, when present and longer than the computed
// backoff, wins — but is capped at the per-query timeout budget, since
// an overloaded server's hint can exceed what any fresh attempt would
// be allowed to spend. Backoff is jittered ±20% so retries from
// concurrent clients decorrelate instead of stampeding a recovering
// server in lockstep. Non-retryable failures and run-deadline expiry
// return immediately.
func queryWithRetry(ctx context.Context, r Runner, req Request, cfg LoadConfig, rng *rand.Rand, retries *int64) (Result, error) {
	var res Result
	var err error
	backoff := retryBase
	for attempt := 0; ; attempt++ {
		res, err = r.Query(ctx, req)
		if err == nil || attempt >= cfg.MaxRetries ||
			!Retryable(Classify(err)) || ctx.Err() != nil {
			return res, err
		}
		wait := backoff
		if hint := RetryAfterHint(err); hint > wait {
			if cfg.QueryTimeout > 0 && hint > cfg.QueryTimeout {
				hint = cfg.QueryTimeout
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

// String renders the report as the m2mload summary block.
func (r LoadReport) String() string {
	hitRate := 0.0
	if r.CacheHits+r.CacheMisses > 0 {
		hitRate = float64(r.CacheHits) / float64(r.CacheHits+r.CacheMisses)
	}
	b := r.ErrorsByClass
	out := fmt.Sprintf(
		"queries=%d errors=%d retries=%d degraded=%d elapsed=%v qps=%.1f\n"+
			"errors by class: timeout=%d shed=%d canceled=%d invalid=%d internal=%d\n"+
			"latency p50=%v p95=%v p99=%v max=%v\n"+
			"artifact cache: hits=%d misses=%d hit-rate=%.1f%%\n"+
			"output tuples: %d",
		r.Queries, r.Errors, r.Retries, r.Degraded, r.Duration.Round(time.Millisecond), r.QPS,
		b.Timeout, b.Shed, b.Canceled, b.Invalid, b.Internal,
		r.P50.Round(time.Microsecond), r.P95.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond),
		r.CacheHits, r.CacheMisses, 100*hitRate, r.OutputTuples)
	if r.SharedScanQueries > 0 {
		out += fmt.Sprintf("\nshared scans: served=%d attached=%d attach-rate=%.1f%% attach-wait p50=%v p95=%v",
			r.SharedScanQueries, r.SharedScanAttached, 100*r.AttachRate,
			r.AttachWaitP50.Round(time.Microsecond), r.AttachWaitP95.Round(time.Microsecond))
	}
	if r.Mutations+r.MutationErrors > 0 {
		out += fmt.Sprintf("\nmutations: committed=%d errors=%d (hit rate above measured under writes)",
			r.Mutations, r.MutationErrors)
	}
	return out
}
