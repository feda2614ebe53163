package service

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"m2mjoin/internal/exec"
	"m2mjoin/internal/telemetry"
)

// This file holds the service's one ledger — the telemetry registry —
// and implements the slow-query log. Every event the service counts is
// a registry-owned Counter created here; Service.Stats reads the same
// instruments the Prometheus exposition renders, so /v1/stats and
// /metrics cannot drift (a test pins it). State that lives in another
// component — cache residency, admission depth, breaker state — is
// exposed as a CounterFunc/GaugeFunc read from that component at scrape
// time. Latency distributions and the per-dataset executor-counter
// totals are recorded once per query on the return path; Stats reads
// its latency quantiles from the same histogram, in process.

// Metric family names. Exported through the exposition only; the
// constants keep recording sites and tests in sync.
const (
	metricQueries        = "m2m_queries_total"
	metricQueryErrors    = "m2m_query_errors_total"
	metricQueryDuration  = "m2m_query_duration_seconds"
	metricQueueWait      = "m2m_queue_wait_seconds"
	metricMutations      = "m2m_mutations_total"
	metricRepairs        = "m2m_repairs_total"
	metricMutationCommit = "m2m_mutation_commit_seconds"
	metricArtifactBuild  = "m2m_artifact_build_seconds"
	metricScatterQueries = "m2m_scatter_queries_total"
	metricDegraded       = "m2m_degraded_results_total"
	metricShardRetries   = "m2m_shard_retries_total"
	metricShardDispatch  = "m2m_shard_dispatch_seconds"
	metricCacheHits      = "m2m_cache_hits_total"
	metricCacheMisses    = "m2m_cache_misses_total"
	metricCacheEvictions = "m2m_cache_evictions_total"
	metricCacheEntries   = "m2m_cache_entries"
	metricCacheBytes     = "m2m_cache_bytes"
	metricCacheLimit     = "m2m_cache_limit_bytes"
	metricActive         = "m2m_active_queries"
	metricQueued         = "m2m_queued_queries"
	metricDraining       = "m2m_draining"
	metricBreakerOpens   = "m2m_breaker_opens_total"
	metricBreakerState   = "m2m_breaker_state"

	metricExecHashProbes     = "m2m_exec_hash_probes_total"
	metricExecFilterProbes   = "m2m_exec_filter_probes_total"
	metricExecSemiJoinProbes = "m2m_exec_semijoin_probes_total"
	metricExecOutputTuples   = "m2m_exec_output_tuples_total"
	metricExecTagHits        = "m2m_exec_tag_hits_total"
	metricExecTagMisses      = "m2m_exec_tag_misses_total"
)

// serviceMetrics owns the service's registry and its instruments.
type serviceMetrics struct {
	reg *telemetry.Registry

	// queries counts queries admitted for execution; errors failed
	// queries by class (read-only after construction).
	queries *telemetry.Counter
	errors  map[Class]*telemetry.Counter
	// mutations counts committed Mutate calls; repairs counts tables
	// carried onto a new version in place (see mutate.go).
	mutations, repairs *telemetry.Counter
	// Sharded-tier counters (see ShardingStats).
	scatterQueries, degraded, shardRetries *telemetry.Counter

	queueWait      *telemetry.Histogram
	mutationCommit *telemetry.Histogram
	// m2m_artifact_build_seconds by kind: the builds of tables this
	// service's cache missed (queryArtifacts) and the ApplyDelta repairs
	// of its commits (repairArtifacts).
	buildHist  *telemetry.Histogram // kind="build"
	repairHist *telemetry.Histogram // kind="repair"
}

// datasetMetrics is one dataset's executor-counter series, created at
// registration so the per-query record path is field adds, not map
// lookups.
type datasetMetrics struct {
	hashProbes     *telemetry.Counter
	filterProbes   *telemetry.Counter
	semiJoinProbes *telemetry.Counter
	outputTuples   *telemetry.Counter
	tagHits        *telemetry.Counter
	tagMisses      *telemetry.Counter
}

// errorsOf returns the failed-query counter of cls; a class outside the
// five defined ones counts as internal.
func (m *serviceMetrics) errorsOf(cls Class) *telemetry.Counter {
	if c := m.errors[cls]; c != nil {
		return c
	}
	return m.errors[ClassInternal]
}

// newServiceMetrics builds the registry with every service-wide
// instrument. Called once from New, after the Service's own state
// exists.
func newServiceMetrics(s *Service) *serviceMetrics {
	reg := telemetry.NewRegistry()
	m := &serviceMetrics{reg: reg, errors: make(map[Class]*telemetry.Counter)}

	m.queries = reg.Counter(metricQueries, "Queries admitted for execution.", nil)
	for _, cls := range []Class{ClassInvalid, ClassTimeout, ClassShed, ClassCanceled, ClassInternal} {
		m.errors[cls] = reg.Counter(metricQueryErrors, "Failed queries by class.",
			telemetry.Labels{{Name: "class", Value: string(cls)}})
	}
	m.mutations = reg.Counter(metricMutations, "Committed mutation batches.", nil)
	m.repairs = reg.Counter(metricRepairs, "Cached tables repaired onto a new version in place.", nil)
	m.scatterQueries = reg.Counter(metricScatterQueries, "Client queries answered by scatter-gather.", nil)
	m.degraded = reg.Counter(metricDegraded, "Degraded (partial-coverage) results returned.", nil)
	m.shardRetries = reg.Counter(metricShardRetries, "Shard dispatch retries.", nil)

	reg.CounterFunc(metricCacheHits, "Artifact cache hits.", nil, func() int64 { return s.cache.stats().Hits })
	reg.CounterFunc(metricCacheMisses, "Artifact cache misses.", nil, func() int64 { return s.cache.stats().Misses })
	reg.CounterFunc(metricCacheEvictions, "Artifact cache evictions.", nil, func() int64 { return s.cache.stats().Evictions })
	reg.GaugeFunc(metricCacheEntries, "Resident artifact cache entries.", nil, func() int64 { return int64(s.cache.stats().Entries) })
	reg.GaugeFunc(metricCacheBytes, "Resident artifact cache bytes.", nil, func() int64 { return s.cache.stats().Bytes })
	reg.GaugeFunc(metricCacheLimit, "Artifact cache byte budget.", nil, func() int64 { return s.cache.stats().Limit })

	reg.GaugeFunc(metricActive, "Queries currently admitted.", nil, func() int64 { return int64(s.admit.activeCount()) })
	reg.GaugeFunc(metricQueued, "Queries waiting for admission.", nil, func() int64 { return int64(s.admit.queuedCount()) })
	reg.GaugeFunc(metricDraining, "1 while the service is draining.", nil, func() int64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})

	m.queueWait = reg.Histogram(metricQueueWait, "Admission queue wait per admitted query.", nil)
	m.mutationCommit = reg.Histogram(metricMutationCommit, "Mutation commit latency, including artifact repair.", nil)
	const buildHelp = "Hash tables this service built after a cache miss (kind build) or repaired at commit (kind repair); " +
		"plan-time measurement builds and SJ's per-query reduced tables are not counted."
	m.buildHist = reg.Histogram(metricArtifactBuild, buildHelp, telemetry.Labels{{Name: "kind", Value: "build"}})
	m.repairHist = reg.Histogram(metricArtifactBuild, buildHelp, telemetry.Labels{{Name: "kind", Value: "repair"}})
	return m
}

// registerDataset adds one dataset's breaker shadow series and creates
// its executor-counter series. Dataset names are unique per service,
// so re-registration cannot occur.
func (m *serviceMetrics) registerDataset(e *datasetEntry) {
	name := e.name
	lbl := telemetry.Labels{{Name: "dataset", Value: name}}
	m.reg.CounterFunc(metricBreakerOpens, "Circuit breaker closed-to-open transitions by dataset.", lbl,
		func() int64 { return e.breaker.snapshot(name).Opens })
	m.reg.GaugeFunc(metricBreakerState, "Circuit breaker state by dataset (0 closed, 1 half-open, 2 open).", lbl,
		func() int64 { return breakerStateValue(e.breaker.snapshot(name).State) })
	e.met = &datasetMetrics{
		hashProbes:     m.reg.Counter(metricExecHashProbes, "Executor hash-table probes by dataset.", lbl),
		filterProbes:   m.reg.Counter(metricExecFilterProbes, "Executor bitvector-filter probes by dataset.", lbl),
		semiJoinProbes: m.reg.Counter(metricExecSemiJoinProbes, "Executor semi-join probes by dataset.", lbl),
		outputTuples:   m.reg.Counter(metricExecOutputTuples, "Result tuples produced by dataset.", lbl),
		tagHits:        m.reg.Counter(metricExecTagHits, "Bloom-tag directory hits by dataset.", lbl),
		tagMisses:      m.reg.Counter(metricExecTagMisses, "Bloom-tag directory misses by dataset.", lbl),
	}
}

func breakerStateValue(st BreakerState) int64 {
	switch st {
	case BreakerHalfOpen:
		return 1
	case BreakerOpen:
		return 2
	}
	return 0
}

// recordQuery records one finished Query call: the end-to-end latency
// histogram (class "ok" on success, the failure class otherwise), and
// — on success — the executor counters folded into the dataset's
// series from the very Stats the caller receives, so the registry
// totals reconcile exactly with client-side sums. A query naming no
// catalog entry (e nil) is labelled dataset="" — a name no dataset can
// register — so unknown names cannot mint series.
func (m *serviceMetrics) recordQuery(e *datasetEntry, strategy string, cls Class, total time.Duration, st *exec.Stats) {
	if strategy == "" {
		strategy = "none"
	}
	dataset := ""
	if e != nil {
		dataset = e.name
	}
	m.reg.Histogram(metricQueryDuration, "End-to-end query latency (queueing included) by dataset, strategy and outcome class.",
		telemetry.Labels{
			{Name: "dataset", Value: dataset},
			{Name: "strategy", Value: strategy},
			{Name: "class", Value: outcomeLabel(cls)},
		}).Observe(total)
	if st == nil || e == nil || e.met == nil {
		return
	}
	dm := e.met
	dm.hashProbes.Add(st.HashProbes)
	dm.filterProbes.Add(st.FilterProbes)
	dm.semiJoinProbes.Add(st.SemiJoinProbes)
	dm.outputTuples.Add(st.OutputTuples)
	dm.tagHits.Add(st.TagHits)
	dm.tagMisses.Add(st.TagMisses)
}

// observeDispatch records one shard dispatch attempt's latency under
// its outcome.
func (m *serviceMetrics) observeDispatch(cls Class, d time.Duration) {
	m.reg.Histogram(metricShardDispatch, "Per-attempt shard dispatch latency by outcome.",
		telemetry.Labels{{Name: "outcome", Value: outcomeLabel(cls)}}).Observe(d)
}

// outcomeLabel is the label value of an outcome: "ok" for success, else
// the failure class.
func outcomeLabel(cls Class) string {
	if cls == "" {
		return "ok"
	}
	return string(cls)
}

// slowQueryLog writes one JSON line per query whose end-to-end latency
// reaches the threshold: the query's trace record with its per-phase
// breakdown and without its span tree. The breakdown is aggregated
// from the tree, which is why enabling the slow-query log also turns
// on tracing for every query.
type slowQueryLog struct {
	threshold time.Duration

	mu sync.Mutex
	w  io.Writer
}

// log writes rec as a slow-query line.
func (l *slowQueryLog) log(rec telemetry.TraceRecord) {
	rec.Root = nil
	b, err := json.Marshal(rec)
	if err != nil {
		return
	}
	b = append(b, '\n')
	l.mu.Lock()
	l.w.Write(b)
	l.mu.Unlock()
}

// phaseMillis aggregates a span tree into per-phase totals by span
// name, skipping the root.
func phaseMillis(root *telemetry.SpanNode) map[string]float64 {
	if root == nil {
		return nil
	}
	out := make(map[string]float64)
	root.Each(func(depth int, n *telemetry.SpanNode) {
		if depth == 0 {
			return
		}
		out[n.Name] += float64(n.DurationNanos) / float64(time.Millisecond)
	})
	return out
}
