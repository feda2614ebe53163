package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/service"
	"m2mjoin/internal/storage"
)

// querier and mutator are the two calls the load loop makes; both
// *service.Service and *service.HTTPRunner provide them.
type querier interface {
	Query(ctx context.Context, req service.Request) (service.Result, error)
}

type mutator interface {
	Mutate(ctx context.Context, req service.MutateRequest) (service.MutateResult, error)
}

// serveCfg is the shape of one serve loop. The harness owns it (and
// the template mix in datasets.go) so that an edit to the program's
// own load generator cannot change the load measured here.
type serveCfg struct {
	http       bool // drive over loopback HTTP instead of in-process
	shards     int  // Shard.Shards; 0 leaves the service unsharded
	writer     bool // one open-loop writer beside the readers
	clients    int  // closed-loop readers
	sharedScan bool
}

const (
	queryTimeoutMillis = 2000
	writerPeriod       = 50 * time.Millisecond // 20 batches/s
)

func warmCfg(nproc int) serveCfg { return serveCfg{clients: nproc} }

func shardedCfg(nproc int) serveCfg {
	return serveCfg{http: true, shards: 4, writer: true, clients: max(1, nproc-1)}
}

// wireCounter counts the bytes of /v1/query exchanges.
type wireCounter struct {
	next           http.Handler
	bytes, queries atomic.Int64
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}

func (w *wireCounter) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/query" {
		w.next.ServeHTTP(rw, r)
		return
	}
	cw := &countingWriter{ResponseWriter: rw}
	w.next.ServeHTTP(cw, r)
	w.bytes.Add(r.ContentLength + cw.n)
	w.queries.Add(1)
}

// server is one service instance with the workload's datasets
// registered and every template executed once.
type server struct {
	svc  *service.Service
	ts   *httptest.Server
	wire *wireCounter
	q    querier
	m    mutator
	// coldFirst is the first query's latency on the fresh service.
	coldFirst time.Duration
	// weighted is the mean weighted probe cost over the first execution
	// of each template, all on the version-0 snapshot.
	weighted float64
	// targets and batches are the writer's state: it continues across
	// the loops run on one server, and batches is replayed for the
	// final oracle check.
	targets []*writeTarget
	batches []service.MutateRequest
	// compactions counts relation compactions over the server's life.
	compactions int
}

func (e *env) startServer(c serveCfg) (*server, error) {
	var sc service.Config
	if c.shards > 1 {
		sc.Shard.Shards = c.shards
	}
	sc.SharedScan.Enabled = c.sharedScan
	srv := &server{svc: service.New(sc)}
	for _, d := range e.datasets {
		if _, err := srv.svc.RegisterDataset(d.name, d.ds); err != nil {
			return nil, err
		}
	}
	srv.q, srv.m = srv.svc, srv.svc
	if c.http {
		srv.wire = &wireCounter{next: service.NewHandler(srv.svc)}
		srv.ts = httptest.NewServer(srv.wire)
		// The runner's client keeps the default two idle connections per
		// host; with more clients than that every request would open a
		// new one.
		if tr, ok := http.DefaultTransport.(*http.Transport); ok && tr.MaxIdleConnsPerHost < c.clients+1 {
			tr.MaxIdleConnsPerHost = c.clients + 1
		}
		runner := service.NewHTTPRunner(srv.ts.URL)
		srv.q, srv.m = runner, runner
	}
	ctx := context.Background()
	for i := range e.templates {
		t := &e.templates[i]
		t0 := time.Now()
		res, err := srv.q.Query(ctx, t.req)
		if i == 0 {
			srv.coldFirst = time.Since(t0)
		}
		if err == nil {
			err = t.check(res.Stats)
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		srv.weighted += res.Stats.WeightedCost(cost.DefaultWeights()) / float64(len(e.templates))
	}
	if c.writer {
		srv.targets = e.writeTargets()
	}
	return srv, nil
}

func (s *server) close() {
	if s.ts != nil {
		s.ts.Close()
	}
}

// runServe drives srv for dur: c.clients closed-loop readers walking
// the template schedule, plus the open-loop writer when configured.
// traced sets Request.Trace and records harness spans into rec.
func (e *env) runServe(srv *server, c serveCfg, dur time.Duration, rec *recorder) loadResult {
	ctx := context.Background()
	res := loadResult{before: srv.svc.Stats()}
	var next, commits atomic.Int64
	clients := make([]loadResult, c.clients)
	m0 := markResources()
	deadline := m0.at.Add(dur)
	var wg sync.WaitGroup
	if c.writer {
		res.writer = &writerResult{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runWriter(ctx, srv, m0.at, deadline, &commits, rec, res.writer)
		}()
	}
	rootName := "client.query"
	if c.http {
		rootName = "http.roundtrip"
	}
	for ci := range clients {
		wg.Add(1)
		go func(cr *loadResult) {
			defer wg.Done()
			seen := commits.Load()
			for time.Now().Before(deadline) {
				n := int(next.Add(1) - 1)
				t := &e.templates[e.schedule[n%len(e.schedule)]]
				req := t.req
				req.TimeoutMillis = queryTimeoutMillis
				req.Trace = rec != nil
				now := commits.Load()
				post := now != seen
				seen = now

				root := rec.start(rootName, noSpan, n)
				t0 := time.Now()
				out, err := srv.q.Query(ctx, req)
				lat := time.Since(t0)
				rec.end(root)
				cr.attempted++
				if err != nil {
					switch service.Classify(err) {
					case service.ClassShed:
						cr.shed++
					case service.ClassTimeout:
						cr.timedOut++
					}
					cr.fail(err)
					continue
				}
				if err := t.check(out.Stats); err != nil {
					cr.fail(err)
					continue
				}
				cr.lats = append(cr.lats, lat)
				cr.tuples += out.Stats.OutputTuples
				cr.elapsed = append(cr.elapsed, out.Elapsed)
				cr.queued = append(cr.queued, out.Queued)
				served := out.Queued + out.Elapsed
				cr.overhead = append(cr.overhead, lat-served)
				cr.cacheHits += out.Stats.CacheHits
				cr.cacheMisses += out.Stats.CacheMisses
				if post {
					cr.postCommit = append(cr.postCommit, lat)
				}
				if sc := out.Trace.Find("scatter"); sc != nil {
					cr.scatter = append(cr.scatter, time.Duration(sc.DurationNanos))
				}
				if rec != nil {
					// The server-side interval is known only by its
					// length; centre it in the client's.
					parent, at := root, t0.Add((lat-served)/2)
					if c.http {
						parent = rec.add("client.query", root, n, at, served)
					}
					rec.add("service.queue", parent, n, at, out.Queued)
					rec.add("exec", parent, n, at.Add(out.Queued), out.Elapsed)
				}
			}
		}(&clients[ci])
	}
	wg.Wait()
	res.close(m0)
	for i := range clients {
		res.merge(&clients[i])
	}
	res.after = srv.svc.Stats()
	return res
}

// writeTarget is one relation the writer mutates.
type writeTarget struct {
	dataset, relation string
	arity             int
	// k is the rows appended (and, once enough are outstanding, deleted)
	// per batch.
	k int
	// rows is the relation's physical row count; mine the writer's own
	// appended rows not yet deleted, oldest first.
	rows int
	mine []int
}

// writeTargets picks, per dataset, the two smallest build-side
// relations, and sizes each batch so a relation's pending delta first
// crosses the storage layer's compaction threshold (a quarter of its
// base) a fifth of the way into a full-length run. The batch shape is a
// constant of the workload, whatever --seconds says.
func (e *env) writeTargets() []*writeTarget {
	var out []*writeTarget
	for _, d := range e.datasets {
		ids := d.tree.NonRoot()
		sort.Slice(ids, func(i, j int) bool {
			ri, rj := d.ds.Relation(ids[i]).NumRows(), d.ds.Relation(ids[j]).NumRows()
			if ri != rj {
				return ri < rj
			}
			return ids[i] < ids[j]
		})
		for _, id := range ids[:2] {
			rel := d.ds.Relation(id)
			out = append(out, &writeTarget{dataset: d.name, relation: rel.Name(), arity: rel.NumCols(), rows: rel.NumRows()})
		}
	}
	perTarget := float64(runSeconds) * float64(time.Second/writerPeriod) / float64(len(out))
	for _, t := range out {
		t.k = max(1, int(math.Ceil(float64(t.rows)/4/(0.2*perTarget))))
	}
	return out
}

// writerResult is the writer's side of one loop.
type writerResult struct {
	commits, failed int
	firstErr        error
	// lats are commit latencies from each batch's due time; late is how
	// far behind its schedule the writer sent each batch.
	lats, late []time.Duration
	// compactions is the server's count so far, warm-up and earlier
	// loops included: compactions come in bursts, one per relation.
	compactions int
}

// nextBatch builds batch number i: k appended rows whose values are all
// negative — the generator emits none, so they join with nothing and
// every template's oracle answer holds at every version — and k
// deletes of the writer's own oldest appends.
func (s *server) nextBatch(i int, rng *rand.Rand) (*writeTarget, service.MutateRequest) {
	t := s.targets[i%len(s.targets)]
	req := service.MutateRequest{Dataset: t.dataset}
	for a := 0; a < t.k; a++ {
		vals := make([]int64, t.arity)
		for j := range vals {
			vals[j] = -(1 + rng.Int63n(1<<40))
		}
		req.Ops = append(req.Ops, service.MutationSpec{Op: "append", Relation: t.relation, Values: vals})
	}
	if len(t.mine) >= 2*t.k {
		for _, row := range t.mine[:t.k] {
			req.Ops = append(req.Ops, service.MutationSpec{Op: "delete", Relation: t.relation, Row: row})
		}
	}
	return t, req
}

// runWriter commits one batch per writerPeriod, open loop: batch i is
// due at start+i*period whatever happened to the batches before it,
// and its latency counts from that due time, so a stall is charged to
// every batch it delays.
func (e *env) runWriter(ctx context.Context, srv *server, start, deadline time.Time,
	commits *atomic.Int64, rec *recorder, w *writerResult) {
	rng := rand.New(rand.NewSource(e.seed ^ int64(len(srv.batches))<<20 ^ 0x5bd1e995))
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * writerPeriod)
		if !due.Before(deadline) {
			return
		}
		time.Sleep(time.Until(due))
		t, req := srv.nextBatch(len(srv.batches), rng)
		sent := time.Now()
		sp := rec.start("client.mutate", noSpan, -1-i)
		out, err := srv.m.Mutate(ctx, req)
		rec.end(sp)
		done := time.Now()
		w.late = append(w.late, sent.Sub(due))
		if err != nil {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = err
			}
			continue
		}
		w.commits++
		commits.Add(1)
		w.lats = append(w.lats, done.Sub(due))
		srv.compactions += len(out.Compacted)
		w.compactions = srv.compactions
		srv.batches = append(srv.batches, req)
		if len(t.mine) >= 2*t.k {
			t.mine = t.mine[t.k:]
		}
		for a := 0; a < t.k; a++ {
			t.mine = append(t.mine, t.rows+a)
		}
		t.rows += t.k
		if got := out.Rows[t.relation]; got != t.rows {
			w.failed++
			if w.firstErr == nil {
				w.firstErr = fmt.Errorf("writer: %s/%s has %d rows after commit, expected %d", t.dataset, t.relation, got, t.rows)
			}
			return
		}
	}
}

// finalCheck runs after the writer has quiesced: it replays the
// committed batches on an independent copy of each dataset, computes
// the oracle on those final snapshots, and queries every template once
// more against the service's final snapshot.
func (e *env) finalCheck(srv *server) (attempted, failed int, firstErr error) {
	final := make(map[string]*storage.Dataset, len(e.datasets))
	for _, d := range e.datasets {
		final[d.name] = d.regenerate()
	}
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, b := range srv.batches {
		delta := final[b.Dataset].Begin()
		for _, op := range b.Ops {
			if op.Op == "append" {
				delta.Append(op.Relation, op.Values...)
			} else {
				delta.Delete(op.Relation, op.Row)
			}
		}
		v, err := delta.Commit()
		if err != nil {
			return 1, 1, fmt.Errorf("final check: replay: %w", err)
		}
		final[b.Dataset] = v.Dataset
	}
	ctx := context.Background()
	for i := range e.templates {
		t := e.templates[i]
		attempted++
		t.count, t.checksum = exec.ReferenceOpts(final[t.req.Dataset], nil, t.sels)
		res, err := srv.q.Query(ctx, t.req)
		if err == nil {
			err = t.check(res.Stats)
		}
		if err == nil && res.Version != final[t.req.Dataset].Version() {
			err = fmt.Errorf("%s: answered at version %d, final snapshot is %d", t.name, res.Version, final[t.req.Dataset].Version())
		}
		if err != nil {
			fail(fmt.Errorf("final check: %w", err))
		}
	}
	return attempted, failed, firstErr
}

// httpOverhead pairs in-process and over-HTTP calls of the most popular
// template on a quiet server and returns the difference of the medians,
// with the bytes per /v1/query exchange so far (all untraced).
func (e *env) httpOverhead(srv *server, pairs int) (time.Duration, float64) {
	ctx := context.Background()
	req := e.templates[0].req
	var direct, wire []time.Duration
	for i := 0; i < pairs; i++ {
		t0 := time.Now()
		if _, err := srv.svc.Query(ctx, req); err != nil {
			return 0, 0
		}
		direct = append(direct, time.Since(t0))
		t0 = time.Now()
		if _, err := srv.q.Query(ctx, req); err != nil {
			return 0, 0
		}
		wire = append(wire, time.Since(t0))
	}
	perQuery := float64(srv.wire.bytes.Load()) / float64(max(srv.wire.queries.Load(), 1))
	return medianDuration(wire) - medianDuration(direct), perQuery
}

// serviceMetrics derives the service.* metrics a load loop yields: a
// is a loop on the default in-process service, b one over HTTP on four
// shards beside the writer.
func serviceMetrics(ms metricSet, a, b *loadResult) {
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	ms["service.overhead_us_p50"] = micros(medianDuration(a.overhead))
	ms["service.queue_us_p95"] = pctMillis(a.queued, 0.95) * 1000
	ms["service.exec_ms_p50"] = pctMillis(a.elapsed, 0.5)
	ms["service.query_p99_ms"] = pctMillis(a.lats, 0.99)
	ms["service.cache_hit_ratio"] = ratio(float64(a.cacheHits), float64(a.cacheHits+a.cacheMisses))
	ms["service.cache_mb"] = float64(a.after.Cache.Bytes) / (1 << 20)
	ms["service.cache_evictions"] = float64(a.after.Cache.Evictions - a.before.Cache.Evictions)
	ms["service.shed_ratio"] = ratio(float64(a.shed), float64(a.attempted))
	ms["service.timeout_ratio"] = ratio(float64(a.timedOut), float64(a.attempted))

	repairs := float64(b.after.Repairs - b.before.Repairs)
	misses := float64(b.after.Cache.Misses - b.before.Cache.Misses)
	ms["service.repair_ratio"] = ratio(repairs, repairs+misses)
	ms["service.post_commit_query_ms_p50"] = pctMillis(b.postCommit, 0.5)
	ms["service.scatter_ms_p50"] = pctMillis(b.scatter, 0.5)
	var retries int64
	if b.after.Sharding != nil && b.before.Sharding != nil {
		retries = b.after.Sharding.Retries - b.before.Sharding.Retries
	}
	ms["service.shard_retries"] = float64(retries)
	ms["service.mutate_p50_ms"] = pctMillis(b.writer.lats, 0.5)
	ms["service.mutate_p95_ms"] = pctMillis(b.writer.lats, 0.95)
	ms["loadgen.writer_late_ms_p95"] = pctMillis(b.writer.late, 0.95)
	ms["storage.compactions"] = float64(b.writer.compactions)
}
