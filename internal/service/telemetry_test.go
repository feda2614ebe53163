package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/telemetry"
)

// scrape renders the service's registry: the exposition text GET
// /metrics serves.
func scrape(t *testing.T, s *Service) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// sumSamples sums the exposition text's sample lines `name{labels}
// value` whose labels include every pair in match (nil matches every
// series). A line it cannot read fails the test.
func sumSamples(t *testing.T, text, name string, match map[string]string) float64 {
	t.Helper()
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("exposition line without a value: %q", line)
		}
		key, labels, _ := strings.Cut(line[:sp], "{")
		ok := key == name
		for k, v := range match {
			ok = ok && strings.Contains(","+strings.TrimSuffix(labels, "}")+",", ","+k+`="`+v+`",`)
		}
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		sum += v
	}
	return sum
}

// wantSample asserts one metric family (under label constraints) sums
// to exactly want — the reconciliation primitive.
func wantSample(t *testing.T, text, name string, match map[string]string, want int64) {
	t.Helper()
	if got := sumSamples(t, text, name, match); got != float64(want) {
		t.Errorf("%s%v = %v, want %d", name, match, got, want)
	}
}

// artifactBuilds is svc's m2m_artifact_build_seconds count of kind
// ("build" or "repair").
func artifactBuilds(t *testing.T, svc *Service, kind string) int64 {
	t.Helper()
	return int64(sumSamples(t, scrape(t, svc), metricArtifactBuild+"_count", map[string]string{"kind": kind}))
}

// TestMetricsReconcileWithStats is the tentpole reconciliation test: a
// deterministic mixed workload — successes across strategies, shed and
// timeout failures, invalid requests, mutation batches with artifact
// repair — after which every registry counter parsed back out of the
// Prometheus exposition equals the corresponding /v1/stats field or
// client-side sum EXACTLY. The shadow-metric design makes drift a
// structural impossibility; this test pins the wiring (names, labels,
// exposition, parse) end to end.
func TestMetricsReconcileWithStats(t *testing.T) {
	ds := genDataset(t, 1500, 3)
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2, CacheBytes: 64 << 20})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Successes: mixed strategies, twice each so the cache serves hits,
	// summing the executed counters (Stats.Executed) client-side as we
	// go. The last one
	// selects, so its selected relation misses the cache.
	var hash, filter, semi, tuples, tagHits, tagMisses int64
	okCalls := 0
	var reqs []Request
	for _, strat := range []string{"COM", "COM", "BVP+COM", "BVP+COM", "SJ+COM", "STD"} {
		reqs = append(reqs, Request{Dataset: "ds", Strategy: strat, FlatOutput: true})
	}
	reqs = append(reqs, Request{Dataset: "ds", Strategy: "COM", FlatOutput: true,
		Selections: []SelectionSpec{{Relation: ds.Tree.Name(1), Column: "id", Value: 3}}})
	for _, req := range reqs {
		res, err := svc.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", req.Strategy, err)
		}
		okCalls++
		ex := res.Stats.Executed()
		hash += ex.HashProbes
		filter += ex.FilterProbes
		semi += ex.SemiJoinProbes
		tuples += ex.OutputTuples
		tagHits += ex.TagHits
		tagMisses += ex.TagMisses
	}

	// Invalid: unknown dataset, then a bad minCoverage.
	if _, err := svc.Query(ctx, Request{Dataset: "nope"}); Classify(err) != ClassInvalid {
		t.Fatalf("unknown dataset: %v", err)
	}
	if _, err := svc.Query(ctx, Request{Dataset: "ds", MinCoverage: 2}); Classify(err) != ClassInvalid {
		t.Fatalf("bad minCoverage: %v", err)
	}

	// Timeout: the deadline is already burned before admission.
	tctx, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	if _, err := svc.Query(tctx, Request{Dataset: "ds"}); Classify(err) != ClassTimeout {
		t.Fatalf("expired deadline: %v", err)
	}
	cancel()

	// Shed: the admission failpoint rejects exactly two queries.
	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteAdmit, Mode: faultinject.ModeError, Every: 1, Limit: 2,
	})
	for i := 0; i < 2; i++ {
		if _, err := svc.Query(ctx, Request{Dataset: "ds"}); Classify(err) != ClassShed {
			t.Fatalf("admission fault %d: %v", i, err)
		}
	}
	faultinject.Disable()

	// Mutations: two committed batches; the warm cache means the second
	// commit repairs artifacts onto the new version in place.
	target := ds.Relation(1) // first non-root relation
	for i := 0; i < 2; i++ {
		vals := make([]int64, target.NumCols())
		for j := range vals {
			vals[j] = -(1 + int64(i)*10 + int64(j))
		}
		if _, err := svc.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: []MutationSpec{
			{Op: "append", Relation: target.Name(), Values: vals},
		}}); err != nil {
			t.Fatal(err)
		}
	}

	st := svc.Stats()
	samples := scrape(t, svc)

	wantSample(t, samples, metricQueries, nil, st.Queries)
	wantSample(t, samples, metricQueryErrors, map[string]string{"class": "invalid"}, st.Errors.Invalid)
	wantSample(t, samples, metricQueryErrors, map[string]string{"class": "timeout"}, st.Errors.Timeout)
	wantSample(t, samples, metricQueryErrors, map[string]string{"class": "shed"}, st.Errors.Shed)
	wantSample(t, samples, metricQueryErrors, map[string]string{"class": "canceled"}, st.Errors.Canceled)
	wantSample(t, samples, metricQueryErrors, map[string]string{"class": "internal"}, st.Errors.Internal)
	if st.Errors.Invalid != 2 || st.Errors.Timeout != 1 || st.Errors.Shed != 2 {
		t.Errorf("workload did not produce the planned failures: %+v", st.Errors)
	}
	wantSample(t, samples, metricMutations, nil, st.Mutations)
	wantSample(t, samples, metricRepairs, nil, st.Repairs)
	if st.Mutations != 2 || st.Repairs == 0 {
		t.Errorf("mutations=%d repairs=%d, want 2 commits with repairs", st.Mutations, st.Repairs)
	}
	wantSample(t, samples, metricCacheHits, nil, st.Cache.Hits)
	wantSample(t, samples, metricCacheMisses, nil, st.Cache.Misses)
	wantSample(t, samples, metricCacheEvictions, nil, st.Cache.Evictions)
	wantSample(t, samples, metricCacheEntries, nil, int64(st.Cache.Entries))
	wantSample(t, samples, metricCacheBytes, nil, st.Cache.Bytes)
	wantSample(t, samples, metricCacheLimit, nil, st.Cache.Limit)
	wantSample(t, samples, metricActive, nil, 0)
	wantSample(t, samples, metricQueued, nil, 0)
	wantSample(t, samples, metricDraining, nil, 0)
	wantSample(t, samples, metricBreakerOpens, map[string]string{"dataset": "ds"}, 0)
	wantSample(t, samples, metricBreakerState, map[string]string{"dataset": "ds"}, 0)

	// Executor counters: the registry series must equal the client-side
	// sums of Executed() of the very Stats each successful query
	// returned.
	lbl := map[string]string{"dataset": "ds"}
	wantSample(t, samples, metricExecHashProbes, lbl, hash)
	wantSample(t, samples, metricExecFilterProbes, lbl, filter)
	wantSample(t, samples, metricExecSemiJoinProbes, lbl, semi)
	wantSample(t, samples, metricExecOutputTuples, lbl, tuples)
	wantSample(t, samples, metricExecTagHits, lbl, tagHits)
	wantSample(t, samples, metricExecTagMisses, lbl, tagMisses)

	// Exactly one latency observation per Query call, success or not;
	// Stats reads its latency from the same histogram.
	totalCalls := int64(okCalls) + st.Errors.Invalid + st.Errors.Timeout + st.Errors.Shed
	wantSample(t, samples, metricQueryDuration+"_count", nil, totalCalls)
	wantSample(t, samples, metricQueryDuration+"_count", nil, st.Latency.Count)
	if qs, n := svc.Registry().HistogramQuantiles(metricQueryDuration, []float64{0.50, 0.95, 0.99}); n != st.Latency.Count ||
		qs[0] != st.Latency.P50 || qs[1] != st.Latency.P95 || qs[2] != st.Latency.P99 {
		t.Errorf("Stats latency %+v, registry quantiles %v over %d", st.Latency, qs, n)
	}
	wantSample(t, samples, metricQueryDuration+"_count",
		map[string]string{"dataset": "ds", "class": "ok"}, int64(okCalls))
	// Queue wait is observed once per admitted query: every success. The
	// expired-deadline query is answered before it plans, and sheds never
	// got a slot.
	admitted := int64(okCalls)
	wantSample(t, samples, metricQueueWait+"_count", nil, admitted)
	// One build observation per cache miss (every missed table is built
	// and handed back), one repair observation per ApplyDelta: each
	// commit appended to one relation whose table was cached.
	wantSample(t, samples, metricArtifactBuild+"_count", map[string]string{"kind": "build"}, st.Cache.Misses)
	wantSample(t, samples, metricArtifactBuild+"_count", map[string]string{"kind": "repair"}, 2)
	if st.Cache.Misses == 0 {
		t.Error("the workload missed the cache nowhere; the build count proves nothing")
	}

	// Whichever way the execute stage runs it, a Query call is recorded
	// once: one latency observation and one breaker-window sample, for a
	// success and for an engine failure alike — and the failure comes
	// back classified, with the time it took.
	for _, path := range executePaths {
		cfg := path.cfg
		cfg.Parallelism, cfg.MaxConcurrent = 2, 2
		psvc := New(cfg)
		if _, err := psvc.RegisterDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
		req := Request{Dataset: "ds", Strategy: "COM", FlatOutput: true, ShardCount: path.shardCount}
		if _, err := psvc.Query(ctx, req); err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		faultinject.Enable(faultinject.Spec{
			Site: faultinject.SiteProbeChunk, Mode: faultinject.ModeError, Every: 1,
		})
		res, err := psvc.Query(ctx, req)
		faultinject.Disable()
		if qe, ok := err.(*QueryError); !ok || qe.Class != ClassInternal || res.Elapsed <= 0 {
			t.Errorf("%s: injected probe fault came back as %v (%T) with Elapsed %v, want an internal *QueryError and Elapsed > 0",
				path.name, err, err, res.Elapsed)
		}
		if n := sumSamples(t, scrape(t, psvc), metricQueryDuration+"_count", nil); n != 2 {
			t.Errorf("%s: %s count = %v after 2 Query calls", path.name, metricQueryDuration, n)
		}
		if b := psvc.Stats().Breakers[0]; b.WindowOK != 1 || b.WindowFailures != 1 {
			t.Errorf("%s: breaker window ok=%d failures=%d after one success and one failure, want 1 and 1",
				path.name, b.WindowOK, b.WindowFailures)
		}
	}
}

// TestExecSeriesCountExecutedWork: the per-dataset executor series
// count the work a query executed. A cold SJ+COM query adds exactly its
// semi-join probes and tag lookups; a repeat adopts the resident phase
// 1, so it adds no semi-join probes and only its phase 2's tag lookups,
// though its Stats still report the phase-1 probes the answer costs.
func TestExecSeriesCountExecutedWork(t *testing.T) {
	ds := genDataset(t, 1500, 3)
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2, CacheBytes: 64 << 20})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	lbl := map[string]string{"dataset": "ds"}
	series := func() (semi, tagHits, tagMisses float64) {
		text := scrape(t, svc)
		return sumSamples(t, text, metricExecSemiJoinProbes, lbl),
			sumSamples(t, text, metricExecTagHits, lbl), sumSamples(t, text, metricExecTagMisses, lbl)
	}
	req := Request{Dataset: "ds", Strategy: "SJ+COM", FlatOutput: true}
	cold, err := svc.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Phase1Adopted || cold.Stats.SemiJoinProbes == 0 {
		t.Fatalf("first SJ query: adopted=%v with %d semi-join probes, want a cold phase 1",
			cold.Stats.Phase1Adopted, cold.Stats.SemiJoinProbes)
	}
	semi, hits, misses := series()
	if semi != float64(cold.Stats.SemiJoinProbes) || hits != float64(cold.Stats.TagHits) || misses != float64(cold.Stats.TagMisses) {
		t.Errorf("after the cold query: series semijoin=%v tag hits=%v misses=%v, want its %d/%d/%d",
			semi, hits, misses, cold.Stats.SemiJoinProbes, cold.Stats.TagHits, cold.Stats.TagMisses)
	}
	warm, err := svc.Query(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Phase1Adopted || warm.Stats.SemiJoinProbes != cold.Stats.SemiJoinProbes {
		t.Fatalf("repeat: adopted=%v with %d semi-join probes, want the resident phase 1's %d",
			warm.Stats.Phase1Adopted, warm.Stats.SemiJoinProbes, cold.Stats.SemiJoinProbes)
	}
	ex := warm.Stats.Executed()
	semi2, hits2, misses2 := series()
	if semi2 != semi {
		t.Errorf("an adopting query moved %s from %v to %v", metricExecSemiJoinProbes, semi, semi2)
	}
	if hits2-hits != float64(ex.TagHits) || misses2-misses != float64(ex.TagMisses) {
		t.Errorf("an adopting query added tag hits %v misses %v, want its executed %d/%d",
			hits2-hits, misses2-misses, ex.TagHits, ex.TagMisses)
	}
}

// TestBuildTimingsStayWithTheirService: two services in one process
// each time only their own tables — a cache-missing query and a commit
// on the first move its m2m_artifact_build_seconds build and repair
// counts, and the second's stay at zero.
func TestBuildTimingsStayWithTheirService(t *testing.T) {
	ctx := context.Background()
	first := New(Config{Parallelism: 2, MaxConcurrent: 2})
	second := New(Config{Parallelism: 2, MaxConcurrent: 2})
	ds := genDataset(t, 1200, 5)
	if _, err := first.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	if _, err := second.RegisterDataset("ds", genDataset(t, 1200, 5)); err != nil {
		t.Fatal(err)
	}
	// Planning seeds the unselected tables; the selected one misses.
	child := ds.Tree.NonRoot()[0]
	if _, err := first.Query(ctx, Request{Dataset: "ds", Strategy: "COM", FlatOutput: true,
		Selections: []SelectionSpec{{Relation: ds.Tree.Name(child), Column: "id", Value: 3}}}); err != nil {
		t.Fatal(err)
	}
	// The commit touches R2, whose seeded table is repaired in place.
	if _, err := first.Mutate(ctx, MutateRequest{Dataset: "ds", Ops: testOps(ds, 0)}); err != nil {
		t.Fatal(err)
	}
	if misses := first.Stats().Cache.Misses; misses == 0 || artifactBuilds(t, first, "build") != misses {
		t.Errorf("first service: %d builds timed for %d cache misses, want one per miss",
			artifactBuilds(t, first, "build"), misses)
	}
	if n := artifactBuilds(t, first, "repair"); n != 1 {
		t.Errorf("first service: %d repairs timed, want 1", n)
	}
	for _, kind := range []string{"build", "repair"} {
		if n := artifactBuilds(t, second, kind); n != 0 {
			t.Errorf("second service timed %d %ss of the first's tables", n, kind)
		}
	}
}

// TestUnknownDatasetsShareOneSeries: a query naming a dataset the
// catalog does not hold is labelled dataset="", so a thousand distinct
// unknown names leave one latency series, not a thousand.
func TestUnknownDatasetsShareOneSeries(t *testing.T) {
	svc := New(Config{})
	for i := 0; i < 1000; i++ {
		if _, err := svc.Query(context.Background(), Request{Dataset: fmt.Sprintf("nope-%d", i)}); Classify(err) != ClassInvalid {
			t.Fatalf("unknown dataset %d: %v", i, err)
		}
	}
	text := scrape(t, svc)
	if n := strings.Count(text, "\n"+metricQueryDuration+"_count"); n != 1 {
		t.Fatalf("%d %s series after 1000 unknown names, want 1", n, metricQueryDuration)
	}
	wantSample(t, text, metricQueryDuration+"_count", map[string]string{"dataset": ""}, 1000)
}

// TestMetricsShardedDegradedReconcile extends reconciliation to the
// scatter-gather tier: a local 2-shard service with retries disabled
// takes one injected shard-dispatch failure, answers degraded under
// minCoverage, and the sharding counters plus the per-attempt dispatch
// histogram come back out of the exposition equal to /v1/stats.
func TestMetricsShardedDegradedReconcile(t *testing.T) {
	ds := genDataset(t, 1200, 9)
	svc := newBreakerless(Config{Parallelism: 2, MaxConcurrent: 4,
		Shard: ShardConfig{Shards: 2, Retries: -1}})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// One clean scatter, then one with a single injected shard failure.
	if _, err := svc.Query(ctx, chaosRequest("COM")); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.Spec{
		Site: faultinject.SiteShardDispatch, Mode: faultinject.ModeError, Every: 1, Limit: 1,
	})
	req := chaosRequest("COM")
	req.MinCoverage = 0.25
	res, err := svc.Query(ctx, req)
	faultinject.Disable()
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if res.Coverage >= 1 {
		t.Fatalf("coverage = %v, want degraded (< 1)", res.Coverage)
	}

	st := svc.Stats()
	if st.Sharding == nil {
		t.Fatal("sharded service reported no sharding stats")
	}
	samples := scrape(t, svc)
	wantSample(t, samples, metricScatterQueries, nil, st.Sharding.ScatterQueries)
	wantSample(t, samples, metricDegraded, nil, st.Sharding.Degraded)
	wantSample(t, samples, metricShardRetries, nil, st.Sharding.Retries)
	if st.Sharding.ScatterQueries != 2 || st.Sharding.Degraded != 1 {
		t.Errorf("scatter=%d degraded=%d, want 2/1", st.Sharding.ScatterQueries, st.Sharding.Degraded)
	}
	// Two scatters over two shards, retries disabled: exactly four
	// dispatch attempts, one of which failed.
	wantSample(t, samples, metricShardDispatch+"_count", nil, 4)
	wantSample(t, samples, metricShardDispatch+"_count", map[string]string{"outcome": "ok"}, 3)
}

// TestResultTraceSpanTree pins the span tree a traced request gets
// back: the expected phases are present, every span nests inside the
// root, and the root's duration accounts for the reported queued plus
// execution latency — the "phase durations sum to the latency you were
// told" contract.
func TestResultTraceSpanTree(t *testing.T) {
	ds := genDataset(t, 1500, 5)
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Two runs: the second proves the pooled span arena resets cleanly.
	for run := 0; run < 2; run++ {
		res, err := svc.Query(ctx, Request{Dataset: "ds", Strategy: "COM", FlatOutput: true, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		root := res.Trace
		if root == nil || root.Name != "query" {
			t.Fatalf("run %d: missing root span: %+v", run, root)
		}
		for _, phase := range []string{"plan", "queue", "exec", "phase1", "phase2", "probe", "merge"} {
			if root.Find(phase) == nil {
				t.Errorf("run %d: no %q span in trace", run, phase)
			}
		}
		if run == 0 {
			if sp := root.Find("build-relation"); sp == nil {
				t.Error("cold run recorded no build-relation span")
			}
		}
		// Every span nests inside the root's window (starts are relative
		// to the root), and ordering is sane.
		root.Each(func(depth int, n *telemetry.SpanNode) {
			if depth == 0 {
				return
			}
			if n.StartNanos < 0 || n.StartNanos+n.DurationNanos > root.DurationNanos {
				t.Errorf("run %d: span %q [%d +%d] escapes root window %d",
					run, n.Name, n.StartNanos, n.DurationNanos, root.DurationNanos)
			}
		})
		// The root span covers queueing and execution: it can only exceed
		// Queued+Elapsed by the service's own bookkeeping between clock
		// reads, never undercut it.
		rootDur := time.Duration(root.DurationNanos)
		if accounted := res.Queued + res.Elapsed; rootDur < accounted {
			t.Errorf("run %d: root %v shorter than queued %v + elapsed %v",
				run, rootDur, res.Queued, res.Elapsed)
		} else if slack := rootDur - accounted; slack > 100*time.Millisecond {
			t.Errorf("run %d: %v of root latency unaccounted for by queued+elapsed", run, slack)
		}
		execSpan := root.Find("exec")
		if execSpan != nil && time.Duration(execSpan.DurationNanos) > res.Elapsed {
			t.Errorf("run %d: exec span %v exceeds reported elapsed %v",
				run, time.Duration(execSpan.DurationNanos), res.Elapsed)
		}
	}
	// Untraced requests stay untraced even with the ring armed off.
	res, err := svc.Query(ctx, Request{Dataset: "ds", Strategy: "COM", FlatOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Error("untraced request came back with a trace")
	}
}

// executePaths are the ways Query's execute stage runs a request: the
// service configuration, and the shard-worker fields of the request,
// that select each.
var executePaths = []struct {
	name       string
	cfg        Config
	shardCount int
}{
	{"solo", Config{}, 0},
	{"shard worker", Config{}, 2},
	{"scatter", Config{Shard: ShardConfig{Shards: 2}}, 0},
}

// TestSlowQueryLog drives the service on a fake millisecond-tick clock
// so every query "takes" far longer than the threshold, and checks the
// line is the query's trace record without its tree: identity, totals
// on the service clock, and a per-phase breakdown that includes the
// execution phases. Every
// execution path is timed and stamped by the same code on that clock,
// so the durations a Result reports are whole ticks.
func TestSlowQueryLog(t *testing.T) {
	for _, tc := range executePaths {
		t.Run(tc.name, func(t *testing.T) {
			ds := genDataset(t, 800, 8)
			var buf syncBuffer
			cfg := tc.cfg
			cfg.Parallelism, cfg.MaxConcurrent = 1, 1
			cfg.SlowQueryMillis, cfg.SlowQueryLog = 2, &buf
			svc := New(cfg)
			// Every clock read advances 1ms: durations become deterministic
			// call counts, and any query crosses the 2ms threshold.
			base := time.Unix(1_700_000_000, 0)
			var tick atomic.Int64
			svc.now = func() time.Time {
				return base.Add(time.Duration(tick.Add(1)) * time.Millisecond)
			}
			if _, err := svc.RegisterDataset("ds", ds); err != nil {
				t.Fatal(err)
			}
			res, err := svc.Query(context.Background(),
				Request{Dataset: "ds", Strategy: "COM", FlatOutput: true, ShardCount: tc.shardCount})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 || res.Elapsed%time.Millisecond != 0 {
				t.Errorf("Elapsed = %v was not measured on the service clock", res.Elapsed)
			}

			line, _, _ := strings.Cut(buf.String(), "\n")
			if line == "" {
				t.Fatal("slow-query log is empty")
			}
			var entry telemetry.TraceRecord
			if err := json.Unmarshal([]byte(line), &entry); err != nil {
				t.Fatalf("slow-query line is not a trace record: %v\n%s", err, line)
			}
			if entry.Dataset != "ds" || entry.Strategy != "COM" || entry.Class != "" || !entry.Slow || entry.Root != nil {
				t.Errorf("slow-query line wrong: %+v, want ds/COM, no class, slow and no tree", entry)
			}
			if entry.TotalMillis < 2 {
				t.Errorf("totalMillis = %v, below the 2ms threshold", entry.TotalMillis)
			}
			for _, phase := range []string{"exec", "phase1", "phase2"} {
				if entry.PhaseMillis[phase] <= 0 {
					t.Errorf("phaseMillis[%q] = %v, want > 0 (have %v)",
						phase, entry.PhaseMillis[phase], entry.PhaseMillis)
				}
			}
			// The line's keys are the record's: the tree and the empty
			// class are left out.
			var keys map[string]json.RawMessage
			if err := json.Unmarshal([]byte(line), &keys); err != nil {
				t.Fatal(err)
			}
			got := strings.Join(slices.Sorted(maps.Keys(keys)), " ")
			if want := "dataset phaseMillis queuedMillis slow strategy time totalMillis"; got != want {
				t.Errorf("slow-query line keys %s, want %s", got, want)
			}
			// The ring kept the same record, with its tree.
			recs := svc.Traces(0)
			if len(recs) != 1 || !recs[0].Slow || recs[0].Root == nil {
				t.Fatalf("trace ring = %+v, want one slow record with a tree", recs)
			}
			recs[0].Root = nil
			if b, err := json.Marshal(recs[0]); err != nil || string(b) != line {
				t.Errorf("ring record without its tree renders as %s (err %v), logged line is %s", b, err, line)
			}
			// The latency histogram observed the very total the ring
			// recorded: a query's end time is read once.
			sum := sumSamples(t, scrape(t, svc), metricQueryDuration+"_sum", map[string]string{"dataset": "ds"})
			if math.Abs(sum*1000-entry.TotalMillis) > 1e-6 {
				t.Errorf("histogram sum %vs != ring total %vms", sum, entry.TotalMillis)
			}
		})
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestTraceRingServesRecentQueries: with TraceRing set, every query is
// traced into the bounded ring, newest first, and the ?n cap holds.
func TestTraceRingServesRecentQueries(t *testing.T) {
	ds := genDataset(t, 800, 4)
	svc := New(Config{Parallelism: 1, MaxConcurrent: 1, TraceRing: 3})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := svc.Query(ctx, Request{Dataset: "ds", FlatOutput: true}); err != nil {
			t.Fatal(err)
		}
	}
	recs := svc.Traces(0)
	if len(recs) != 3 {
		t.Fatalf("ring holds %d records, want capacity 3", len(recs))
	}
	for i, rec := range recs {
		if rec.Root == nil || rec.Root.Name != "query" || rec.Dataset != "ds" {
			t.Fatalf("record %d malformed: %+v", i, rec)
		}
		if i > 0 && rec.Time.After(recs[i-1].Time) {
			t.Fatalf("records not newest-first at %d", i)
		}
	}
	if got := svc.Traces(1); len(got) != 1 {
		t.Fatalf("Traces(1) returned %d records", len(got))
	}
}

// TestTelemetryHTTPEndpoints exercises the HTTP face: a traced query
// returns its span tree in the JSON body, /v1/trace serves the ring
// with ?n validation, and /metrics serves parseable Prometheus text.
func TestTelemetryHTTPEndpoints(t *testing.T) {
	ds := genDataset(t, 800, 6)
	svc := New(Config{Parallelism: 1, MaxConcurrent: 1, TraceRing: 8})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"dataset":"ds","flat":true,"trace":true}`))
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || res.Trace == nil || res.Trace.Name != "query" {
		t.Fatalf("traced query over HTTP: status=%d trace=%+v", resp.StatusCode, res.Trace)
	}

	resp, err = http.Get(srv.URL + "/v1/trace?n=1")
	if err != nil {
		t.Fatal(err)
	}
	var recs []telemetry.TraceRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(recs) != 1 || recs[0].Root == nil {
		t.Fatalf("/v1/trace?n=1 returned %+v", recs)
	}
	if resp, err = http.Get(srv.URL + "/v1/trace?n=bogus"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad ?n got status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := sumSamples(t, string(body), metricQueries, nil); got != 1 {
		t.Errorf("scraped %s = %v, want 1", metricQueries, got)
	}
}

// TestStatsUptimeAndGeneration pins the new /v1/stats fields: a
// monotonically increasing generation, the build's Go version, and a
// non-decreasing uptime.
func TestStatsUptimeAndGeneration(t *testing.T) {
	svc := New(Config{})
	s1 := svc.Stats()
	s2 := svc.Stats()
	if s2.StatsGeneration != s1.StatsGeneration+1 {
		t.Errorf("generations %d, %d — want consecutive", s1.StatsGeneration, s2.StatsGeneration)
	}
	if s1.GoVersion != runtime.Version() {
		t.Errorf("goVersion = %q, want %q", s1.GoVersion, runtime.Version())
	}
	if s1.UptimeMillis < 0 || s2.UptimeMillis < s1.UptimeMillis {
		t.Errorf("uptime went backwards: %d then %d", s1.UptimeMillis, s2.UptimeMillis)
	}
}
