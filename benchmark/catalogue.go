package main

import (
	"encoding/json"
	"sort"
)

// harnessVersion changes whenever a workload parameter, a metric
// definition or the load loop changes: results of different versions
// are not comparable and -compare refuses them.
const harnessVersion = "1"

// runSeconds is BENCHMARK.json's run_seconds: how long one run
// measures. Dataset sizes below are chosen for this length.
const runSeconds = 20

// Workload names.
const (
	adhocBlowup        = "adhoc_blowup"
	adhocSelective     = "adhoc_selective"
	serveWarmMix       = "serve_warm_mix"
	serveShardedWrites = "serve_sharded_writes"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{adhocBlowup, "many-to-many regime, cold every op: probe kernels, expansion and the chunk loop do the work; service, cache, shard and HTTP do none"},
	{adhocSelective, "low match probability, cold every op: tag misses, filters, semi-join reduction and builds dominate; expansion does almost nothing"},
	{serveWarmMix, "repeated queries against a warm in-process service: artifact cache near 100% hits, so phase 2 plus admission and lookup overhead is everything"},
	{serveShardedWrites, "same mix over loopback HTTP on 4 shards beside an open-loop writer: delta probes, per-shard copies, version churn, commit and repair"},
}

// metricDef is one metric of the catalogue. Bound is set on end-to-end
// metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system sees, measured with
// every trace switch off. Bounds are shares of the parent's median,
// set at three times the spread seen across ten seeds on the machine
// the harness was written on (README, "Comparing and A/A") and capped
// at the benchmark contract's 0.25 — where every timing metric sits.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"throughput_qps", "1/s", "higher", 0.25},
	{"output_tuples_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_query", "ms", "lower", 0.25},
	{"alloc_kb_per_query", "KiB", "lower", 0.10},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"weighted_probes_per_query", "probes", "lower", 0.04},
	{"ok_ratio", "ratio", "higher", 0.001},
}

// strategyTags are the six strategies' metric-name spellings ('+' is
// not a legal name character).
var strategyTags = []string{"STD", "COM", "BVP-STD", "BVP-COM", "SJ-STD", "SJ-COM"}

// perLayer are the metrics of single layers, named <module>.<metric>,
// all from the traced pass.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	m := []metricDef{
		{"hashtable.build_ns_per_row", "ns", "lower", 0},
		{"hashtable.bytes_per_row", "B", "lower", 0},
		{"hashtable.table_mb", "MiB", "lower", 0},
		{"hashtable.probe_batch_ns_per_key", "ns", "lower", 0},
		{"hashtable.probe_counts_ns_per_key", "ns", "lower", 0},
		{"hashtable.probe_contains_ns_per_key", "ns", "lower", 0},
		{"hashtable.chained_probe_ns_per_key", "ns", "lower", 0},
		{"hashtable.reduce_live_ns_per_row", "ns", "lower", 0},
		{"hashtable.tag_miss_ratio", "ratio", "higher", 0},
		{"hashtable.apply_delta_us", "us", "lower", 0},
		{"hashtable.rebuild_versioned_ms", "ms", "lower", 0},
		{"hashtable.probe_delta_ns_per_key", "ns", "lower", 0},

		{"bitvector.from_table_us", "us", "lower", 0},
		{"bitvector.build_ns_per_row", "ns", "lower", 0},
		{"bitvector.probe_ns_per_key", "ns", "lower", 0},
		{"bitvector.false_positive_ratio", "ratio", "lower", 0},
		{"bitvector.bits_per_key", "bits", "lower", 0},

		{"factor.expand_ns_per_tuple", "ns", "lower", 0},
		{"factor.factorized_rows_per_output_tuple", "ratio", "lower", 0},
	}
	for _, s := range strategyTags {
		m = append(m,
			metricDef{"exec." + s + ".cold_ms", "ms", "lower", 0},
			metricDef{"exec." + s + ".warm_ms", "ms", "lower", 0},
			metricDef{"exec." + s + ".weighted_probes", "probes", "lower", 0},
			metricDef{"exec." + s + ".alloc_kb", "KiB", "lower", 0},
		)
	}
	m = append(m,
		metricDef{"exec.STD.nointerleave_ratio", "ratio", "higher", 0},
		metricDef{"exec.COM.nointerleave_ratio", "ratio", "higher", 0},
		metricDef{"exec.bfs_expand_ratio", "ratio", "higher", 0},
		metricDef{"exec.parallel2_speedup", "ratio", "higher", 0},
		metricDef{"exec.batch8_over_solo", "ratio", "lower", 0},
		metricDef{"exec.sharded4_time_ratio", "ratio", "lower", 0},
		metricDef{"exec.sharded4_alloc_ratio", "ratio", "lower", 0},

		metricDef{"workload.measure_ms", "ms", "lower", 0},
		metricDef{"opt.choose_plan_us", "us", "lower", 0},
		metricDef{"opt.exhaustive_us", "us", "lower", 0},
		metricDef{"opt.greedy_us", "us", "lower", 0},
		metricDef{"opt.regret", "ratio", "lower", 0},
		metricDef{"cost.estimate_over_actual", "ratio", "lower", 0},

		metricDef{"storage.commit_us", "us", "lower", 0},
		metricDef{"storage.fingerprint_ms", "ms", "lower", 0},
		metricDef{"storage.compactions", "count", "higher", 0},
		metricDef{"shard.partition_ms", "ms", "lower", 0},
		metricDef{"shard.advance_us", "us", "lower", 0},

		metricDef{"service.overhead_us_p50", "us", "lower", 0},
		metricDef{"service.queue_us_p95", "us", "lower", 0},
		metricDef{"service.exec_ms_p50", "ms", "lower", 0},
		metricDef{"service.query_p99_ms", "ms", "lower", 0},
		metricDef{"service.cache_hit_ratio", "ratio", "higher", 0},
		metricDef{"service.cache_mb", "MiB", "lower", 0},
		metricDef{"service.cache_evictions", "count", "lower", 0},
		metricDef{"service.cold_first_query_ms", "ms", "lower", 0},
		metricDef{"service.shed_ratio", "ratio", "lower", 0},
		metricDef{"service.timeout_ratio", "ratio", "lower", 0},
		metricDef{"service.repair_ratio", "ratio", "higher", 0},
		metricDef{"service.post_commit_query_ms_p50", "ms", "lower", 0},
		metricDef{"service.scatter_ms_p50", "ms", "lower", 0},
		metricDef{"service.shard_retries", "count", "lower", 0},
		metricDef{"service.http_overhead_us_p50", "us", "lower", 0},
		metricDef{"service.http_bytes_per_query", "B", "lower", 0},
		metricDef{"service.shared_scan_qps_ratio", "ratio", "higher", 0},
		metricDef{"service.shared_scan_attach_ratio", "ratio", "higher", 0},
		metricDef{"service.mutate_p50_ms", "ms", "lower", 0},
		metricDef{"service.mutate_p95_ms", "ms", "lower", 0},

		metricDef{"telemetry.trace_overhead_pct", "%", "lower", 0},
		metricDef{"telemetry.scrape_ms", "ms", "lower", 0},
		metricDef{"telemetry.span_ns", "ns", "lower", 0},

		metricDef{"runtime.gc_pause_ms", "ms", "lower", 0},
		metricDef{"runtime.gc_cycles", "count", "lower", 0},
		metricDef{"runtime.heap_peak_mb", "MiB", "lower", 0},

		metricDef{"loadgen.writer_late_ms_p95", "ms", "lower", 0},
		metricDef{"loadgen.fail_ratio", "ratio", "lower", 0},
	)
	return m
}

// manifestJSON renders BENCHMARK.json from the catalogue, so the file
// at the repo root cannot drift from what the harness emits (a self
// test compares them).
func manifestJSON() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, e2e{d.Name, d.Unit, d.Better, d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layer{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // only strings and numbers: cannot fail
	}
	return append(b, '\n')
}

// metricValue is one emitted metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by catalogue name.
type metricSet map[string]float64

// render attaches units from defs; it reports names missing from the
// set or absent from the catalogue, which is a harness bug.
func (s metricSet) render(defs []metricDef) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var problems []string
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.Name] = true
		v, ok := s[d.Name]
		if !ok {
			problems = append(problems, "missing "+d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range s {
		if !known[name] {
			problems = append(problems, "uncatalogued "+name)
		}
	}
	sort.Strings(problems)
	return out, problems
}
