package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"m2mjoin/internal/cost"
)

// runConfig is one driver invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sc       scale
	nproc    int
	spans    string // file the traced pass writes its spans to, if set
}

// runInfo pins what a result was measured on; -compare refuses to
// compare results whose infos differ.
type runInfo struct {
	HarnessVersion string            `json:"harness_version"`
	Workload       string            `json:"workload"`
	Seed           int64             `json:"seed"`
	Seconds        float64           `json:"seconds"`
	Scale          string            `json:"scale"`
	GoVersion      string            `json:"go_version"`
	NumCPU         int               `json:"nproc"`
	GOMAXPROCS     int               `json:"gomaxprocs"`
	Clients        int               `json:"clients"`
	Fingerprints   map[string]string `json:"fingerprints"`
	Rows           map[string]int    `json:"rows"`
	// OutputPerDriverRow is the oracle's flat output of the primary
	// template over its driver rows: the regime the workload is in.
	OutputPerDriverRow float64 `json:"output_per_driver_row"`
}

// runOutput is the driver-facing result of a run.
type runOutput struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	info      runInfo
	notes     []string
	firstErr  error
}

// prepared is a workload after one set-up: inputs generated, oracle
// computed, and — for the serve workloads — a warmed service.
type prepared struct {
	e        *env
	srv      *server // nil on the adhoc path
	cfg      serveCfg
	weighted float64
}

func (p *prepared) close() {
	if p.srv != nil {
		p.srv.close()
	}
}

// setUp does everything a user pays before the first measured
// operation: generate, compute the oracle, register, warm up.
func setUp(c runConfig) (*prepared, error) {
	e, err := buildEnv(c.workload, c.sc, c.seed, c.nproc)
	if err != nil {
		return nil, err
	}
	p := &prepared{e: e}
	switch c.workload {
	case adhocBlowup, adhocSelective:
		st, err := e.adhocOp(e.datasets[0].ds, nil, 0)
		if err == nil {
			err = e.templates[0].check(st)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		p.weighted = st.WeightedCost(cost.DefaultWeights())
		return p, nil
	case serveWarmMix:
		p.cfg = warmCfg(c.nproc)
	case serveShardedWrites:
		p.cfg = shardedCfg(c.nproc)
	}
	if p.srv, err = e.startServer(p.cfg); err != nil {
		return nil, err
	}
	p.weighted = p.srv.weighted
	return p, nil
}

// runWorkload is one run: repeated set-up, then either the measured
// phase (trace off, end-to-end metrics) or the traced pass (per-layer
// metrics).
func runWorkload(c runConfig) (runOutput, error) {
	var p *prepared
	setups := make([]float64, 0, c.sc.setupReps)
	for i := 0; i < c.sc.setupReps; i++ {
		if p != nil {
			p.close()
			p = nil
			runtime.GC() // so peak RSS is one set-up's, not their sum
		}
		t0 := time.Now()
		var err error
		if p, err = setUp(c); err != nil {
			return runOutput{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer p.close()

	out := runOutput{info: describe(c, p)}
	ms := metricSet{}
	total := time.Duration(c.seconds * float64(time.Second))
	// A fresh process is slower for its first seconds (the heap is still
	// growing into untouched pages); users of a running system do not
	// pay that on every operation, so it is let pass before timing.
	warm := p.measured(total / 10)
	out.add(warm.attempted, warm.failed, warm.firstErr)
	if !c.trace {
		r := p.measured(total)
		out.add(r.attempted, r.failed, r.firstErr)
		if r.writer != nil {
			out.add(r.writer.commits+r.writer.failed, r.writer.failed, r.writer.firstErr)
			out.add(p.e.finalCheck(p.srv))
			out.notes = append(out.notes, fmt.Sprintf("writer: %d commits, %d compactions, commit p50 %.3f ms p95 %.3f ms, late p95 %.3f ms",
				r.writer.commits, r.writer.compactions, pctMillis(r.writer.lats, 0.5), pctMillis(r.writer.lats, 0.95), pctMillis(r.writer.late, 0.95)))
		}
		r.endToEnd(ms)
		ms["setup_s"] = median(setups)
		ms["peak_rss_mb"] = peakRSSMiB()
		ms["weighted_probes_per_query"] = p.weighted
		out.notes = append(out.notes, fmt.Sprintf("%d correct ops in %.2f s; query_p95_ms is the p%.1f of that sample",
			r.okOps(), r.wall.Seconds(), 100*supportedPercentile(r.okOps(), 0.95)))
		return out.finish(ms, endToEnd)
	}
	if err := p.tracedPass(c, total, ms, &out); err != nil {
		return runOutput{}, err
	}
	return out.finish(ms, perLayer)
}

func (o *runOutput) add(attempted, failed int, err error) {
	o.Attempted += attempted
	o.Failed += failed
	if o.firstErr == nil {
		o.firstErr = err
	}
}

func (o *runOutput) finish(ms metricSet, defs []metricDef) (runOutput, error) {
	var problems []string
	o.Metrics, problems = ms.render(defs)
	if len(problems) > 0 {
		return *o, fmt.Errorf("metric set does not match the catalogue: %v", problems)
	}
	o.Correct = o.Failed == 0 && o.Attempted > 0
	return *o, nil
}

// measured runs the workload's own load loop with nothing traced.
func (p *prepared) measured(dur time.Duration) loadResult {
	if p.srv == nil {
		return p.e.runAdhoc(dur, nil)
	}
	return p.e.runServe(p.srv, p.cfg, dur, nil)
}

func describe(c runConfig, p *prepared) runInfo {
	info := runInfo{
		HarnessVersion: harnessVersion,
		Workload:       c.workload,
		Seed:           c.seed,
		Seconds:        c.seconds,
		Scale:          c.sc.name,
		GoVersion:      runtime.Version(),
		NumCPU:         c.nproc,
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Clients:        1,
		Fingerprints:   map[string]string{},
		Rows:           map[string]int{},
	}
	if p.srv != nil {
		info.Clients = p.cfg.clients
	}
	for _, d := range p.e.datasets {
		info.Fingerprints[d.name] = fmt.Sprintf("%016x", d.fingerprint)
		info.Rows[d.name] = d.totalRows
	}
	info.OutputPerDriverRow = float64(p.e.templates[0].count) / float64(p.e.datasets[0].driverRows)
	return info
}

// tracedPass produces every per-layer metric. Its time goes, in order,
// to the workload's own loop untraced then traced (their p50s give the
// tracing overhead), a short loop in the other serve configuration, a
// shared-scan on/off pair, and the layer probes.
func (p *prepared) tracedPass(c runConfig, total time.Duration, ms metricSet, out *runOutput) error {
	e := p.e
	rec := newRecorder()
	part := func(share float64) time.Duration { return time.Duration(share * float64(total)) }
	note := func(r *loadResult) {
		out.add(r.attempted, r.failed, r.firstErr)
		if r.writer != nil {
			out.add(r.writer.commits+r.writer.failed, r.writer.failed, r.writer.firstErr)
		}
	}

	// The two serve configurations: a on the default in-process
	// service, b over HTTP on four shards beside the writer. The
	// workload's own configuration gets the long loop.
	cfgA, cfgB := warmCfg(c.nproc), shardedCfg(c.nproc)
	shareA, shareB := 0.075, 0.125
	adhocPlain, adhocTraced := 0.02, 0.05
	switch c.workload {
	case adhocBlowup, adhocSelective:
		adhocPlain, adhocTraced = 0.12, 0.16
	case serveWarmMix:
		shareA = 0.16
	case serveShardedWrites:
		shareB = 0.16
	}

	// The cold ad-hoc path on the primary dataset, split at the module
	// boundaries: its spans give the planning layers' times in the
	// context a real operation runs them in.
	plain := e.runAdhoc(part(adhocPlain), nil)
	traced := e.runAdhoc(part(adhocTraced), rec)
	note(&plain)
	note(&traced)
	perOp := spanMedians(rec.spans)
	ms["workload.measure_ms"] = msec(perOp["plan.measure"])
	ms["opt.choose_plan_us"] = micros(perOp["plan.search"])

	// serveLoops runs one configuration: on the workload's own warmed
	// server (untraced, then traced) or on a fresh one (traced only).
	serveLoops := func(srv *server, cfg serveCfg, share float64) (loadResult, error) {
		own := srv != nil
		if !own {
			var err error
			if srv, err = e.startServer(cfg); err != nil {
				return loadResult{}, err
			}
			defer srv.close()
		}
		if cfg.http {
			over, bytes := e.httpOverhead(srv, 15)
			ms["service.http_overhead_us_p50"] = micros(over)
			ms["service.http_bytes_per_query"] = bytes
		} else {
			ms["service.cold_first_query_ms"] = msec(srv.coldFirst)
			ms["telemetry.scrape_ms"] = msec(timeMedian(5, func() { srv.svc.Registry().WritePrometheus(io.Discard) }))
		}
		if own {
			plain = e.runServe(srv, cfg, part(0.12), nil)
			note(&plain)
		}
		r := e.runServe(srv, cfg, part(share), rec)
		note(&r)
		if cfg.writer {
			out.add(e.finalCheck(srv))
		}
		return r, nil
	}
	var srvA, srvB *server
	switch c.workload {
	case serveWarmMix:
		srvA = p.srv
	case serveShardedWrites:
		srvB = p.srv
	}
	a, err := serveLoops(srvA, cfgA, shareA)
	if err != nil {
		return err
	}
	b, err := serveLoops(srvB, cfgB, shareB)
	if err != nil {
		return err
	}
	serviceMetrics(ms, &a, &b)
	switch c.workload {
	case serveWarmMix:
		traced = a
	case serveShardedWrites:
		traced = b
	}
	base, with := pctMillis(plain.lats, 0.5), pctMillis(traced.lats, 0.5)
	ms["telemetry.trace_overhead_pct"] = 100 * (with - base) / max(base, 1e-9)
	ms["runtime.gc_pause_ms"] = msec(traced.gcPause)
	ms["runtime.gc_cycles"] = float64(traced.gcCycles)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	ms["runtime.heap_peak_mb"] = float64(mem.HeapSys) / (1 << 20)

	// Shared-scan batching on against off, on the in-process mix.
	var scan [2]loadResult
	for i, on := range []bool{false, true} {
		cfg := cfgA
		cfg.sharedScan = on
		srv, err := e.startServer(cfg)
		if err != nil {
			return err
		}
		scan[i] = e.runServe(srv, cfg, part(0.04), nil)
		if on {
			st := srv.svc.Stats()
			ms["service.shared_scan_attach_ratio"] = float64(st.SharedScanMembers-st.SharedScans) / float64(max(st.SharedScanMembers, 1))
		}
		srv.close()
		note(&scan[i])
	}
	ms["service.shared_scan_qps_ratio"] = float64(scan[1].okOps()) / scan[1].wall.Seconds() /
		max(float64(scan[0].okOps())/scan[0].wall.Seconds(), 1e-9)

	pr := e.runProbes(rec, ms)
	out.add(pr.attempted, pr.failed, pr.firstErr)
	ms["loadgen.fail_ratio"] = float64(out.Failed) / float64(max(out.Attempted, 1))

	self := selfTimes(rec.spans)
	for _, name := range []string{"query", "plan.measure", "plan.search", "exec.run", "http.roundtrip", "client.query", "service.queue", "exec", "client.mutate"} {
		if d, ok := self[name]; ok {
			out.notes = append(out.notes, fmt.Sprintf("self time %-16s %10.3f ms", name, msec(d)))
		}
	}
	if p.srv == nil {
		chosen := "exec." + strategyTags[pr.auto.Strategy]
		sum := ms["workload.measure_ms"] + ms["opt.choose_plan_us"]/1000 + ms[chosen+".cold_ms"]
		out.notes = append(out.notes, fmt.Sprintf("layer sum: workload.measure_ms + opt.choose_plan_us + %s.cold_ms = %.3f ms; untraced query p50 in this pass %.3f ms",
			chosen, sum, base))
	}
	return rec.write(c.spans)
}
