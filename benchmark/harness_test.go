package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"m2mjoin/internal/service"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestMatchesBenchmarkJSON pins BENCHMARK.json at the repo root
// to the catalogue the harness emits, and the catalogue to the limits
// of the benchmark contract.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, manifestJSON()) {
		t.Fatal("BENCHMARK.json differs from the catalogue: regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not a legal name", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	if n := len(workloadDefs); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDefs {
		check("workload", w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, d := range endToEnd {
		check("end-to-end", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range perLayer {
		check("per-layer", d.Name)
	}
}

// differences are the metrics defined as a difference of two timings,
// which noise can push below zero.
var differences = map[string]bool{
	"telemetry.trace_overhead_pct": true,
	"factor.expand_ns_per_tuple":   true,
	"service.http_overhead_us_p50": true,
	"service.overhead_us_p50":      true,
}

func smokeRun(t *testing.T, workload string, trace bool, spans string) runOutput {
	t.Helper()
	out, err := runWorkload(runConfig{
		workload: workload, seed: 7, seconds: 0.2, trace: trace, sc: smokeScale, nproc: 2, spans: spans,
	})
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !out.Correct || out.Failed != 0 {
		t.Fatalf("%s trace=%v: %d of %d operations failed: %v", workload, trace, out.Failed, out.Attempted, out.firstErr)
	}
	return out
}

// TestSmoke runs every workload at the smoke scale, both passes: the
// emitted metric names must be exactly the catalogue's (runWorkload
// fails otherwise), every value a finite non-negative number, no
// operation may fail, and the weighted probe count must repeat exactly
// on a second run of the same seed.
func TestSmoke(t *testing.T) {
	for _, w := range workloadDefs {
		t.Run(w.Name, func(t *testing.T) {
			spans := filepath.Join(t.TempDir(), "spans.json")
			first := smokeRun(t, w.Name, false, "")
			second := smokeRun(t, w.Name, false, "")
			layers := smokeRun(t, w.Name, true, spans)
			if len(first.Metrics) != len(endToEnd) || len(layers.Metrics) != len(perLayer) {
				t.Fatalf("emitted %d end-to-end and %d per-layer metrics, catalogue has %d and %d",
					len(first.Metrics), len(layers.Metrics), len(endToEnd), len(perLayer))
			}
			for _, set := range []map[string]metricValue{first.Metrics, layers.Metrics} {
				for name, m := range set {
					if !nameRE.MatchString(name) {
						t.Errorf("emitted name %q is not a legal name", name)
					}
					if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (m.Value < 0 && !differences[name]) {
						t.Errorf("%s = %v", name, m.Value)
					}
				}
			}
			for _, d := range endToEnd {
				if first.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0", d.Name)
				}
			}
			a, b := first.Metrics["weighted_probes_per_query"].Value, second.Metrics["weighted_probes_per_query"].Value
			if a != b {
				t.Errorf("weighted_probes_per_query %v then %v on the same seed", a, b)
			}
			if got := layers.Metrics["loadgen.fail_ratio"].Value; got != 0 {
				t.Errorf("loadgen.fail_ratio = %v", got)
			}
			raw, err := os.ReadFile(spans)
			if err != nil {
				t.Fatal(err)
			}
			var recorded []spanRec
			if err := json.Unmarshal(raw, &recorded); err != nil || len(recorded) == 0 {
				t.Fatalf("spans file: %d spans, err %v", len(recorded), err)
			}
		})
	}
}

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		name string
		n    int
		ask  float64
		want float64
	}{
		{"too few samples fall back to the median", 12, 0.95, 0.5},
		{"twenty samples support exactly the median", 20, 0.95, 0.5},
		{"one hundred support p90", 100, 0.95, 0.90},
		{"one hundred and sixty support p93.75", 160, 0.95, 0.9375},
		{"two hundred are the first to support p95", 200, 0.95, 0.95},
		{"more samples never raise it above what was asked", 5000, 0.95, 0.95},
		{"p99 needs a thousand", 999, 0.99, 989.0 / 999},
		{"p99 at a thousand", 1000, 0.99, 0.99},
	}
	for _, c := range cases {
		if got := supportedPercentile(c.n, c.ask); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: supportedPercentile(%d, %v) = %v, want %v", c.name, c.n, c.ask, got, c.want)
		}
	}
	// The rule itself: at least ten samples lie beyond the reported one.
	for n := 20; n < 400; n++ {
		if rank := supportedRank(n, 0.95); n-rank < 10 {
			t.Errorf("n=%d: rank %d leaves only %d samples beyond", n, rank, n-rank)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	cases := []struct {
		name  string
		spans []spanRec
		want  map[string]time.Duration
	}{
		{
			"a leaf's self time is its duration",
			[]spanRec{{Name: "q", Parent: -1, StartNs: 0, EndNs: ms(10)}},
			map[string]time.Duration{"q": 10 * time.Millisecond},
		},
		{
			"sequential children are subtracted",
			[]spanRec{
				{Name: "q", Parent: -1, StartNs: 0, EndNs: ms(100)},
				{Name: "plan", Parent: 0, StartNs: ms(5), EndNs: ms(25)},
				{Name: "exec", Parent: 0, StartNs: ms(30), EndNs: ms(90)},
			},
			map[string]time.Duration{"q": 20 * time.Millisecond, "plan": 20 * time.Millisecond, "exec": 60 * time.Millisecond},
		},
		{
			"overlapping children count once, and are clipped to the parent",
			[]spanRec{
				{Name: "scatter", Parent: -1, StartNs: 0, EndNs: ms(100)},
				{Name: "shard", Parent: 0, StartNs: ms(10), EndNs: ms(30)},
				{Name: "shard", Parent: 0, StartNs: ms(20), EndNs: ms(50)},
				{Name: "shard", Parent: 0, StartNs: ms(90), EndNs: ms(120)},
			},
			map[string]time.Duration{"scatter": 50 * time.Millisecond, "shard": 80 * time.Millisecond},
		},
		{
			"a span never closed is left out",
			[]spanRec{{Name: "q", Parent: -1, StartNs: ms(5), EndNs: -1}},
			map[string]time.Duration{},
		},
	}
	for _, c := range cases {
		got := selfTimes(c.spans)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			continue
		}
		for name, want := range c.want {
			if got[name] != want {
				t.Errorf("%s: self time of %s = %v, want %v", c.name, name, got[name], want)
			}
		}
	}
}

// stallingMutator commits instantly except for one stalled call.
type stallingMutator struct {
	calls atomic.Int64
	stall time.Duration
	rows  map[string]int
}

func (m *stallingMutator) Mutate(_ context.Context, req service.MutateRequest) (service.MutateResult, error) {
	if m.calls.Add(1) == 1 {
		time.Sleep(m.stall)
	}
	for _, op := range req.Ops {
		if op.Op == "append" {
			m.rows[op.Relation]++
		}
	}
	return service.MutateResult{Rows: map[string]int{req.Ops[0].Relation: m.rows[req.Ops[0].Relation]}}, nil
}

// TestWriterChargesStallsFromDueTime: an open-loop batch is timed from
// when it was due, so a stalled commit is charged to the batches it
// delays as well, and how late each was sent is reported.
func TestWriterChargesStallsFromDueTime(t *testing.T) {
	const stall = 3 * writerPeriod
	e := &env{seed: 1}
	fake := &stallingMutator{stall: stall, rows: map[string]int{"R2": 100}}
	srv := &server{m: fake, targets: []*writeTarget{{dataset: "d", relation: "R2", arity: 3, k: 2, rows: 100}}}
	var commits atomic.Int64
	var w writerResult
	start := time.Now()
	e.runWriter(context.Background(), srv, start, start.Add(6*writerPeriod), &commits, nil, &w)

	if w.commits != 6 || w.failed != 0 || commits.Load() != 6 {
		t.Fatalf("%d commits, %d failed, counter %d; want 6, 0, 6", w.commits, w.failed, commits.Load())
	}
	// Tolerance: scheduler jitter, far below one writer period.
	const tol = 20 * time.Millisecond
	if w.late[0] > tol || w.lats[0] < stall {
		t.Errorf("batch 0: sent %v late, latency %v; want on time and at least the stall %v", w.late[0], w.lats[0], stall)
	}
	// Batches 1 and 2 were due during the stall: sent late by what was
	// left of it, and their latency includes that wait.
	for i, wantLate := range []time.Duration{2 * writerPeriod, writerPeriod} {
		b := i + 1
		if d := w.late[b] - wantLate; d < -tol || d > tol {
			t.Errorf("batch %d: sent %v late, want %v ± %v", b, w.late[b], wantLate, tol)
		}
		if w.lats[b] < w.late[b] {
			t.Errorf("batch %d: latency %v is less than its lateness %v", b, w.lats[b], w.late[b])
		}
	}
	if w.late[5] > tol {
		t.Errorf("batch 5: still %v late after the stall cleared", w.late[5])
	}
	// Two batches in, the writer starts deleting its own oldest appends.
	if got := len(srv.batches[2].Ops); got != 4 {
		t.Errorf("batch 2 has %d ops, want 2 appends and 2 deletes", got)
	}
	if srv.batches[2].Ops[2].Row != 100 || srv.batches[2].Ops[3].Row != 101 {
		t.Errorf("batch 2 deletes rows %d and %d, want its first appends 100 and 101", srv.batches[2].Ops[2].Row, srv.batches[2].Ops[3].Row)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	cases := []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		// statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
		{[]float64{30, 10, 20}, 10, 20, 30},
		// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
		{[]float64{1, 2, 4, 8, 16}, 1.5, 4, 12},
		{[]float64{5}, 5, 5, 5},
	}
	const tol = 1e-12
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if math.Abs(q1-c.q1) > tol || math.Abs(q2-c.q2) > tol || math.Abs(q3-c.q3) > tol {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "weighted_probes_per_query", Unit: "probes", Better: "lower", Bound: 0.02}
	steady := func(centre float64) []float64 { // spread 2% of the median
		return []float64{centre * 0.99, centre, centre * 1.01, centre, centre * 0.99, centre * 1.01}
	}
	noisy := func(centre float64) []float64 { // spread 30% of the median
		return []float64{centre * 0.8, centre, centre * 1.2, centre * 0.85, centre * 1.15, centre}
	}
	cases := []struct {
		name      string
		old, new  []float64
		def       metricDef
		verdict   string
		wantWorse float64
		tol       float64
	}{
		{"identical samples", steady(100), steady(100), lower, unchanged, 0, 1e-12},
		{"5% slower is inside a 10% bound", steady(100), steady(105), lower, unchanged, 0.05, 1e-9},
		{"15% slower is a regression", steady(100), steady(115), lower, regressed, 0.15, 1e-9},
		{"15% faster beats a 2% spread", steady(100), steady(85), lower, improved, -0.15, 1e-9},
		{"1% faster is inside the 2% spread", steady(100), steady(99), lower, unchanged, -0.01, 1e-9},
		{"for a higher-is-better metric a drop is the regression", steady(500), steady(400), higher, regressed, 0.20, 1e-9},
		{"and a rise the gain", steady(500), steady(600), higher, improved, -0.20, 1e-9},
		{"a spread wider than the bound resolves nothing, even a big shift", noisy(100), noisy(140), lower, unresolved, 0.40, 1e-9},
		{"nor does it show 'unchanged'", noisy(100), noisy(100), lower, unresolved, 0, 1e-12},
		{"single samples: the bound stands in for the noise", []float64{100}, []float64{93}, lower, unchanged, -0.07, 1e-9},
		{"single samples: a gain must beat the bound", []float64{100}, []float64{80}, lower, improved, -0.20, 1e-9},
		{"single samples: a loss beyond the bound", []float64{100}, []float64{112}, lower, regressed, 0.12, 1e-9},
		{"a count that repeats exactly", []float64{31847.5, 31847.5}, []float64{31847.5, 31847.5}, exact, unchanged, 0, 0},
		{"a count that grew 3% against a 2% bound", []float64{1000, 1000}, []float64{1030, 1030}, exact, regressed, 0.03, 1e-12},
	}
	for _, c := range cases {
		r := judge(c.old, c.new, c.def)
		if r.Verdict != c.verdict {
			t.Errorf("%s: verdict %s, want %s (worse %.4f, spread %.4f)", c.name, r.Verdict, c.verdict, r.Worse, r.Spread)
		}
		if math.Abs(r.Worse-c.wantWorse) > c.tol {
			t.Errorf("%s: worse by %v, want %v ± %v", c.name, r.Worse, c.wantWorse, c.tol)
		}
	}
}

func TestCompareRefusesDifferentInputs(t *testing.T) {
	base := runInfo{
		HarnessVersion: harnessVersion, Workload: adhocBlowup, Seed: 1, Seconds: 20, Scale: "full", Clients: 1,
		Fingerprints: map[string]string{"blowup": "00aa"}, Rows: map[string]int{"blowup": 10},
	}
	cases := []struct {
		name   string
		change func(*runInfo)
		refuse bool
	}{
		{"same inputs", func(*runInfo) {}, false},
		{"another Go version or machine is the reader's business", func(i *runInfo) { i.GoVersion = "go9"; i.NumCPU = 64 }, false},
		{"harness version", func(i *runInfo) { i.HarnessVersion = "0" }, true},
		{"seed", func(i *runInfo) { i.Seed = 2 }, true},
		{"run length", func(i *runInfo) { i.Seconds = 5 }, true},
		{"scale", func(i *runInfo) { i.Scale = "smoke" }, true},
		{"client count", func(i *runInfo) { i.Clients = 4 }, true},
		{"dataset fingerprint", func(i *runInfo) { i.Fingerprints = map[string]string{"blowup": "00ab"} }, true},
		{"row count", func(i *runInfo) { i.Rows = map[string]int{"blowup": 11} }, true},
	}
	dir := t.TempDir()
	write := func(name string, info runInfo) string {
		path := filepath.Join(dir, name)
		rf := &resultFile{HarnessVersion: info.HarnessVersion, Workloads: map[string]*workloadResult{
			adhocBlowup: {Info: info, Attempted: 1, EndToEnd: map[string]float64{"query_p50_ms": 10}},
		}}
		if err := writeResultFile(path, rf); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", base)
	for _, c := range cases {
		changed := base
		c.change(&changed)
		_, err := compareFiles(io.Discard, oldPath, write("new.json", changed))
		if (err != nil) != c.refuse {
			t.Errorf("%s: error %v, want refusal %v", c.name, err, c.refuse)
		}
	}
}
