package service

import (
	"context"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"m2mjoin/internal/exec"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/telemetry"
)

// TestShardedServiceBitIdentity: a sharded service must answer every
// strategy bit-identically (modulo cache counters) to an unsharded
// service over the same dataset, at full coverage.
func TestShardedServiceBitIdentity(t *testing.T) {
	ds := genDataset(t, 2000, 21)
	plain := New(Config{Parallelism: 4, MaxConcurrent: 2})
	sharded := New(Config{Parallelism: 4, MaxConcurrent: 2, Shard: ShardConfig{Shards: 3}})
	for _, s := range []*Service{plain, sharded} {
		if _, err := s.RegisterDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	for _, strat := range chaosStrategies {
		base, err := plain.Query(ctx, chaosRequest(strat))
		if err != nil {
			t.Fatalf("%s baseline: %v", strat, err)
		}
		if base.Stats.OutputTuples == 0 || base.Stats.Checksum == 0 {
			t.Fatalf("%s: degenerate baseline", strat)
		}
		res, err := sharded.Query(ctx, chaosRequest(strat))
		if err != nil {
			t.Fatalf("%s sharded: %v", strat, err)
		}
		if res.Shards != 3 || res.Coverage != 1 || res.FailedShards != nil {
			t.Fatalf("%s: want full-coverage 3-shard result, got shards=%d coverage=%v failed=%v",
				strat, res.Shards, res.Coverage, res.FailedShards)
		}
		if got, want := stripCache(res.Stats), stripCache(base.Stats); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: sharded result diverges:\n got %+v\nwant %+v", strat, got, want)
		}
	}
	st := sharded.Stats()
	if st.Sharding == nil || st.Sharding.Shards != 3 ||
		st.Sharding.ScatterQueries != int64(len(chaosStrategies)) {
		t.Fatalf("sharding stats wrong: %+v", st.Sharding)
	}
	if plain.Stats().Sharding != nil {
		t.Fatal("unsharded service must not report sharding stats")
	}
}

// TestShardCountDoesNotMultiplyCache: shards probe the parent
// snapshot's own artifacts, so the same queries leave the same cache
// behind at any shard count — one table/filter per (relation, version,
// selection), not one per shard.
func TestShardCountDoesNotMultiplyCache(t *testing.T) {
	ds := genDataset(t, 2000, 28)
	ctx := context.Background()
	cacheAfter := func(shards int) CacheStats {
		svc := New(Config{Parallelism: 4, MaxConcurrent: 2, Shard: ShardConfig{Shards: shards}})
		if _, err := svc.RegisterDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
		reqs := []Request{
			chaosRequest("COM"), chaosRequest("BVP+STD"), chaosRequest("SJ+COM"), chaosRequest(""),
			{Dataset: "ds", Strategy: "STD", FlatOutput: true,
				Selections: []SelectionSpec{{Relation: "R2", Column: ds.Relation(1).ColumnNames()[0], Value: 3}}},
		}
		for round := 0; round < 2; round++ {
			for _, req := range reqs {
				if _, err := svc.Query(ctx, req); err != nil {
					t.Fatalf("shards=%d %+v: %v", shards, req, err)
				}
			}
		}
		return svc.Stats().Cache
	}
	one, four := cacheAfter(1), cacheAfter(4)
	if one.Entries == 0 || one.Bytes == 0 {
		t.Fatalf("degenerate baseline: %+v", one)
	}
	if four.Entries != one.Entries || four.Bytes != one.Bytes {
		t.Fatalf("4 shards cache %d entries / %d bytes, unsharded %d / %d",
			four.Entries, four.Bytes, one.Entries, one.Bytes)
	}
}

// TestShardWorkerRole: any plain service executes shard-worker
// requests (ShardCount/ShardIndex), and manually merging all workers'
// results reproduces the unsharded answer bit-identically — the
// distributed form of the exec-layer merge matrix.
func TestShardWorkerRole(t *testing.T) {
	ds := genDataset(t, 1500, 22)
	svc := New(Config{Parallelism: 2, MaxConcurrent: 2})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := svc.Query(ctx, chaosRequest("BVP+COM"))
	if err != nil {
		t.Fatal(err)
	}
	const n = 4
	parts := make([]exec.Stats, n)
	for k := 0; k < n; k++ {
		req := chaosRequest("BVP+COM")
		req.ShardCount, req.ShardIndex = n, k
		res, err := svc.Query(ctx, req)
		if err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
		parts[k] = res.Stats
	}
	got, want := stripCache(exec.MergeShardStats(parts)), stripCache(base.Stats)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker merge diverges:\n got %+v\nwant %+v", got, want)
	}
}

// TestShardRequestValidation: malformed shard parameters are rejected
// as ClassInvalid before any work happens.
func TestShardRequestValidation(t *testing.T) {
	ds := genDataset(t, 200, 23)
	svc := New(Config{Parallelism: 1, MaxConcurrent: 1})
	if _, err := svc.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{Dataset: "ds", ShardCount: -1},
		{Dataset: "ds", ShardCount: shard.MaxShards + 1},
		{Dataset: "ds", ShardCount: 2, ShardIndex: 2},
		{Dataset: "ds", ShardCount: 2, ShardIndex: -1},
		{Dataset: "ds", MinCoverage: -0.1},
		{Dataset: "ds", MinCoverage: 1.5},
	}
	for i, req := range bad {
		_, err := svc.Query(context.Background(), req)
		if Classify(err) != ClassInvalid {
			t.Errorf("bad request %d: got %v (class %v), want invalid", i, err, Classify(err))
		}
	}
}

// TestShardedServiceRemoteBackends: a frontend scattering over two
// replica backends (each holding the full dataset, serving
// shard-worker requests over HTTP) must be bit-identical to unsharded
// execution, and the backends must actually have served the shards.
func TestShardedServiceRemoteBackends(t *testing.T) {
	ds := genDataset(t, 1800, 24)
	newBackend := func() (*Service, *httptest.Server) {
		s := New(Config{Parallelism: 2, MaxConcurrent: 4})
		if _, err := s.RegisterDataset("ds", ds); err != nil {
			t.Fatal(err)
		}
		return s, httptest.NewServer(NewHandler(s))
	}
	b1, srv1 := newBackend()
	b2, srv2 := newBackend()
	defer srv1.Close()
	defer srv2.Close()

	front := New(Config{Parallelism: 2, MaxConcurrent: 4, Shard: ShardConfig{
		Shards:   4,
		Backends: []string{srv1.URL, srv2.URL},
	}})
	if _, err := front.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	plain := New(Config{Parallelism: 2, MaxConcurrent: 4})
	if _, err := plain.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, strat := range []string{"COM", "SJ+COM"} {
		base, err := plain.Query(ctx, chaosRequest(strat))
		if err != nil {
			t.Fatal(err)
		}
		res, err := front.Query(ctx, chaosRequest(strat))
		if err != nil {
			t.Fatalf("%s via backends: %v", strat, err)
		}
		if res.Coverage != 1 || res.Shards != 4 {
			t.Fatalf("%s: want full coverage over 4 shards, got %+v", strat, res)
		}
		if got, want := stripCache(res.Stats), stripCache(base.Stats); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: remote scatter diverges:\n got %+v\nwant %+v", strat, got, want)
		}
	}
	if q1, q2 := b1.Stats().Queries, b2.Stats().Queries; q1 == 0 || q2 == 0 {
		t.Fatalf("scatter did not reach both backends: %d / %d shard queries", q1, q2)
	}
}

// TestShardedFailoverToHealthyReplica: with one dead backend, the
// classified retry rotates every shard to the surviving replica and
// queries still complete at full coverage, bit-identically.
func TestShardedFailoverToHealthyReplica(t *testing.T) {
	ds := genDataset(t, 1200, 25)
	alive := New(Config{Parallelism: 2, MaxConcurrent: 4})
	if _, err := alive.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(alive))
	defer srv.Close()
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	front := New(Config{Parallelism: 2, MaxConcurrent: 4, Shard: ShardConfig{
		Shards:   2,
		Backends: []string{deadURL, srv.URL},
		Retries:  1,
	}})
	if _, err := front.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	plain := New(Config{Parallelism: 2, MaxConcurrent: 4})
	if _, err := plain.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	base, err := plain.Query(ctx, chaosRequest("COM"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := front.Query(ctx, chaosRequest("COM"))
	if err != nil {
		t.Fatalf("failover query: %v", err)
	}
	if res.Coverage != 1 {
		t.Fatalf("failover should reach full coverage, got %v", res.Coverage)
	}
	if got, want := stripCache(res.Stats), stripCache(base.Stats); !reflect.DeepEqual(got, want) {
		t.Fatalf("failover result diverges:\n got %+v\nwant %+v", got, want)
	}
	if st := front.Stats(); st.Sharding.Retries == 0 {
		t.Fatal("failover must have recorded shard retries")
	}
}

// TestShardedDegradedCoverage: with a dead replica and retries
// disabled, shards pinned to it fail; MinCoverage admits the
// survivors' merge with row-weighted Coverage and the failed-shard
// set, and the degraded stats equal the surviving shard's solo
// (shard-worker) baseline. Without MinCoverage the same query fails.
func TestShardedDegradedCoverage(t *testing.T) {
	ds := genDataset(t, 1000, 26)
	alive := New(Config{Parallelism: 2, MaxConcurrent: 4})
	if _, err := alive.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHandler(alive))
	defer srv.Close()
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()

	// Shard k's only attempt goes to target k: shard 0 dies with the
	// dead backend, shard 1 survives on the live one.
	front := New(Config{Parallelism: 2, MaxConcurrent: 4, Shard: ShardConfig{
		Shards:   2,
		Backends: []string{deadURL, srv.URL},
		Retries:  -1, // disabled: no failover, shard 0 must fail
	}})
	if _, err := front.RegisterDataset("ds", ds); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Full-coverage demand: the query fails with a classified error.
	if _, err := front.Query(ctx, chaosRequest("COM")); err == nil {
		t.Fatal("full-coverage query over a dead shard must fail")
	} else if cls := Classify(err); cls != ClassInternal {
		t.Fatalf("dead-backend failure class = %v, want internal", cls)
	}

	// Degraded demand: survivors are merged and labeled.
	req := chaosRequest("COM")
	req.MinCoverage = 0.25
	res, err := front.Query(ctx, req)
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	shards, err := shard.Partition(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantCov := float64(shards[1].DriverRows()) / float64(ds.Relation(plan.Root).NumRows())
	if res.Coverage != wantCov || res.Stats.Coverage != wantCov {
		t.Fatalf("coverage = %v / %v, want %v", res.Coverage, res.Stats.Coverage, wantCov)
	}
	if !reflect.DeepEqual(res.FailedShards, []int{0}) || !reflect.DeepEqual(res.Stats.FailedShards, []int{0}) {
		t.Fatalf("failed shards = %v, want [0]", res.FailedShards)
	}

	// The degraded merge must equal the surviving shard's own solo run.
	solo := chaosRequest("COM")
	solo.ShardCount, solo.ShardIndex = 2, 1
	soloRes, err := alive.Query(ctx, solo)
	if err != nil {
		t.Fatal(err)
	}
	want := exec.MergeShardStats([]exec.Stats{soloRes.Stats})
	got := stripCache(res.Stats)
	got.Coverage, got.FailedShards = 1, nil
	if !reflect.DeepEqual(got, stripCache(want)) {
		t.Fatalf("degraded merge is not the survivors' merge:\n got %+v\nwant %+v", got, stripCache(want))
	}
	if st := front.Stats(); st.Sharding.Degraded != 1 {
		t.Fatalf("degraded counter = %d, want 1", st.Sharding.Degraded)
	}
}

// TestScatterWorkEndsWithItsQuery: a shard dispatch is a call on the
// query's own stack of goroutines, so when Query returns — because its
// deadline expired under a stalled shard, or because one shard's
// failure doomed a full-coverage scatter — every dispatch it made has
// returned too: the dispatch histogram already counts them, and none is
// left to write spans into the trace arena the next query recycles.
func TestScatterWorkEndsWithItsQuery(t *testing.T) {
	const stall = 200 * time.Millisecond
	delay := faultinject.Spec{Site: faultinject.SiteShardDispatch, Mode: faultinject.ModeDelay, Every: 1, Delay: stall}
	for _, tc := range []struct {
		name      string
		specs     []faultinject.Spec
		timeoutMs int64
		want      Class
	}{
		{"deadline under a stalled shard", []faultinject.Spec{delay}, 20, ClassTimeout},
		// The second dispatch to start fails, with its sibling already
		// past the failpoint and stalled in its probe loop (one site
		// holds one spec, so the stall moves to the chunk failpoint).
		{"sibling of a failed shard", []faultinject.Spec{
			{Site: faultinject.SiteProbeChunk, Mode: faultinject.ModeDelay, Every: 1, Delay: stall},
			{Site: faultinject.SiteShardDispatch, Mode: faultinject.ModeError, Every: 2, Limit: 1}}, 0, ClassInternal},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := newBreakerless(Config{Parallelism: 2, MaxConcurrent: 2,
				Shard: ShardConfig{Shards: 2, Retries: -1}})
			if _, err := svc.RegisterDataset("ds", genDataset(t, 1200, 29)); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if _, err := svc.Query(ctx, chaosRequest("COM")); err != nil { // plan and warm the cache
				t.Fatal(err)
			}
			dispatches := func() int64 {
				_, n := telemetry.HistogramQuantiles(scrape(t, svc), metricShardDispatch, nil)
				return n
			}
			before := dispatches()

			faultinject.Enable(tc.specs...)
			defer faultinject.Disable()
			req := chaosRequest("COM")
			req.Trace, req.TimeoutMillis = true, tc.timeoutMs
			if _, err := svc.Query(ctx, req); Classify(err) != tc.want {
				t.Fatalf("faulted query: %v, want class %s", err, tc.want)
			}
			if got := dispatches() - before; got != 2 {
				t.Errorf("%d shard dispatches had returned when Query did, want both", got)
			}
			if st := svc.Stats(); st.Active != 0 {
				t.Errorf("Active = %d after Query returned", st.Active)
			}

			// The next traced query runs (stalled, so long enough for any
			// straggler to wake) on the recycled arena: it must hold its own
			// spans only.
			req.TimeoutMillis = 0
			res, err := svc.Query(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil || res.Trace.Name != "query" {
				t.Fatalf("follow-up trace root = %+v, want one query span", res.Trace)
			}
			spans := map[string]int{}
			res.Trace.Each(func(_ int, n *telemetry.SpanNode) { spans[n.Name]++ })
			if spans["shard-dispatch"] != 2 || spans["exec"] != 2 {
				t.Errorf("follow-up trace has %d shard-dispatch and %d exec spans, want 2 and 2",
					spans["shard-dispatch"], spans["exec"])
			}
		})
	}
}
