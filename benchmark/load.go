package main

import (
	"time"

	"m2mjoin/internal/core"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/service"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// loadResult is what one load loop observed from the client side, plus
// the resources the process spent meanwhile.
type loadResult struct {
	attempted, failed int
	firstErr          error
	// lats are the client-observed latencies of correct operations.
	lats   []time.Duration
	tuples int64
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64

	gcPause  time.Duration
	gcCycles int

	// Serve loops only: timings the service returned with each result,
	// per-class failures, and the writer's side of the run.
	elapsed, queued, overhead []time.Duration
	postCommit, scatter       []time.Duration
	cacheHits, cacheMisses    int64
	shed, timedOut            int
	before, after             service.Stats
	writer                    *writerResult
}

func (r *loadResult) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// merge folds one client's observations into r.
func (r *loadResult) merge(c *loadResult) {
	r.attempted += c.attempted
	r.failed += c.failed
	if r.firstErr == nil {
		r.firstErr = c.firstErr
	}
	r.lats = append(r.lats, c.lats...)
	r.tuples += c.tuples
	r.elapsed = append(r.elapsed, c.elapsed...)
	r.queued = append(r.queued, c.queued...)
	r.overhead = append(r.overhead, c.overhead...)
	r.postCommit = append(r.postCommit, c.postCommit...)
	r.scatter = append(r.scatter, c.scatter...)
	r.cacheHits += c.cacheHits
	r.cacheMisses += c.cacheMisses
	r.shed += c.shed
	r.timedOut += c.timedOut
}

// close charges the window that began at m0 to r.
func (r *loadResult) close(m0 resourceMark) {
	m1 := markResources()
	r.wall = m1.at.Sub(m0.at)
	r.cpu = m1.cpu - m0.cpu
	r.alloc = m1.alloc - m0.alloc
	r.gcPause = time.Duration(m1.gcPause - m0.gcPause)
	r.gcCycles = int(m1.gcNum - m0.gcNum)
}

func (r *loadResult) okOps() int { return len(r.lats) }

// endToEnd derives the user-visible metrics of a measured window.
func (r *loadResult) endToEnd(into metricSet) {
	ok := float64(max(r.okOps(), 1))
	secs := r.wall.Seconds()
	into["query_p50_ms"] = pctMillis(r.lats, 0.5)
	into["query_p95_ms"] = pctMillis(r.lats, 0.95)
	into["throughput_qps"] = float64(r.okOps()) / secs
	into["output_tuples_per_s"] = float64(r.tuples) / secs
	into["cpu_ms_per_query"] = msec(r.cpu) / ok
	into["alloc_kb_per_query"] = float64(r.alloc) / 1024 / ok
	into["ok_ratio"] = float64(r.attempted-r.failed) / float64(max(r.attempted, 1))
}

// adhocOp is one cold ad-hoc query: measure edge statistics, choose a
// plan over all six strategies, execute it. With a recorder the same
// work is split at the module boundaries so each part gets a span.
func (e *env) adhocOp(ds *storage.Dataset, rec *recorder, op int) (exec.Stats, error) {
	req := core.PlanRequest{Dataset: ds, MeasureStats: true, FlatOutput: true}
	root := rec.start("query", noSpan, op)
	defer rec.end(root)
	if rec != nil {
		req.StatsCache = workload.NewEdgeStatsCache()
		sp := rec.start("plan.measure", root, op)
		workload.MeasuredTreeCached(ds, req.StatsCache)
		rec.end(sp)
	}
	sp := rec.start("plan.search", root, op)
	choice, err := core.ChoosePlan(req)
	rec.end(sp)
	if err != nil {
		return exec.Stats{}, err
	}
	sp = rec.start("exec.run", root, op)
	st, err := core.Execute(ds, choice, core.ExecuteOptions{FlatOutput: true, Parallelism: e.parallelism})
	rec.end(sp)
	return st, err
}

// runAdhoc is the closed loop of the adhoc_* workloads: one caller,
// the engine called directly, nothing cached between operations.
func (e *env) runAdhoc(dur time.Duration, rec *recorder) loadResult {
	t := &e.templates[0]
	ds := e.datasets[0].ds
	var r loadResult
	m0 := markResources()
	deadline := m0.at.Add(dur)
	for op := 0; time.Now().Before(deadline); op++ {
		t0 := time.Now()
		st, err := e.adhocOp(ds, rec, op)
		lat := time.Since(t0)
		r.attempted++
		if err == nil {
			err = t.check(st)
		}
		if err != nil {
			r.fail(err)
			continue
		}
		r.lats = append(r.lats, lat)
		r.tuples += st.OutputTuples
	}
	r.close(m0)
	return r
}
