// Package service is the concurrent query-serving layer of the
// prototype: a long-running process component that owns a catalog of
// named datasets, a bounded LRU cache of phase-1 build artifacts (hash
// tables, each carrying its bitvector projection, and SJ build sides)
// shared across queries, and an admission controller that splits the
// worker budget over concurrent queries and propagates client
// cancellation into the executor.
//
// The paper's phase 1 dominates the build-bound strategies; because PR
// 4 made every phase-1 structure an immutable, read-only artifact that
// is bit-identical however it is built, the service can share them
// across queries: a warm-cache query executes with zero table builds
// while producing Stats and checksums bit-identical to a cold run.
// Cache keys root at the snapshot's lineage fingerprint
// (storage.Dataset.VersionFingerprint — the content fingerprint at
// registration, folded with each committed mutation batch), so equal
// content shares artifacts even across separately registered datasets
// and every committed version keys its own.
//
// Datasets are versioned in place: Mutate commits a batch of appends
// and deletes through the storage delta API, swaps the entry's head
// snapshot, repairs cached artifacts incrementally onto the new
// version's keys (one set per snapshot, shared by every shard),
// advances memoized shard row sets in lockstep, and purges artifact
// keys of versions past the retention window (current + previous).
// Queries pin the head snapshot at admission — a commit landing
// mid-flight is invisible to them (snapshot isolation via
// copy-on-write columns and liveness).
//
// Typical use:
//
//	svc := service.New(service.Config{CacheBytes: 256 << 20})
//	svc.RegisterDataset("orders", ds)
//	res, err := svc.Query(ctx, service.Request{Dataset: "orders"})
//
// cmd/m2mserve exposes the service over HTTP/JSON (see http.go) and
// cmd/m2mload drives that API with a closed-loop generator.
package service

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/telemetry"
	"m2mjoin/internal/workload"
)

// Config sizes the service.
type Config struct {
	// CacheBytes is the artifact cache's byte budget (default 256 MiB).
	// The LRU never holds more than this many bytes of hash tables.
	CacheBytes int64
	// Parallelism is the total worker budget split across concurrent
	// queries by the admission controller (default GOMAXPROCS).
	Parallelism int
	// MaxConcurrent bounds the number of queries executing at once
	// (default max(Parallelism, 2)); further queries wait, at most
	// 4*MaxConcurrent deep and 2s long — past either bound a query is
	// shed (ClassShed, Retry-After hint) instead of joining a pile-up.
	MaxConcurrent int
	// Shard configures the fault-tolerant scatter-gather tier: hash
	// partitioning, replica backends, per-attempt deadlines and
	// classified retry (see ShardConfig; the zero value leaves the
	// service unsharded).
	Shard ShardConfig
	// SharedScan is ignored: every query scans the driver on its own
	// (see SharedScanConfig).
	SharedScan SharedScanConfig
	// SlowQueryMillis, when positive, enables the slow-query log: every
	// query whose end-to-end latency (queueing included) reaches the
	// threshold emits one structured JSON line with a per-phase span
	// breakdown to SlowQueryLog. Enabling it traces every query.
	SlowQueryMillis int64
	// SlowQueryLog receives slow-query lines (default os.Stderr).
	SlowQueryLog io.Writer
	// TraceRing sizes the recent-trace ring served at /v1/trace
	// (default telemetry.DefaultRingSize). The ring holds the traces of
	// queries that were traced at all — Request.Trace, the slow-query
	// log, or an explicitly positive TraceRing, which turns tracing on
	// for every query.
	TraceRing int
}

// SharedScanConfig is what is left of shared-scan batching, which was
// removed: it stays only because the benchmark harness
// (benchmark/serve.go) sets Enabled.
type SharedScanConfig struct {
	// Enabled is ignored.
	Enabled bool
}

// DefaultCacheBytes is the artifact cache budget when Config.CacheBytes
// is zero.
const DefaultCacheBytes = 256 << 20

// Service is the concurrent query service. All methods are safe for
// concurrent use.
type Service struct {
	cfg   Config
	cache *artifactCache
	admit *admission

	mu       sync.RWMutex
	datasets map[string]*datasetEntry

	// targets is the shard replica set: the local process, or one HTTP
	// target per configured backend. Immutable after New.
	targets []shardTarget

	// draining flips when a drain starts: new queries are shed, the
	// in-flight ones finish.
	draining atomic.Bool

	// met is the metrics registry with every counter the service keeps
	// (see metrics.go); traces the bounded recent-trace ring behind
	// /v1/trace; slowLog the slow-query log (nil when disabled).
	// tracePool recycles span arenas so a traced query allocates no span
	// storage in steady state.
	met       *serviceMetrics
	traces    *telemetry.Ring
	slowLog   *slowQueryLog
	tracePool sync.Pool

	// started anchors Stats.UptimeMillis; statsGen numbers Stats
	// snapshots monotonically.
	started  time.Time
	statsGen atomic.Int64

	// now is the clock, injectable for deterministic breaker tests.
	now func() time.Time
	// maxRows is the largest relation the engine can address: probe
	// results carry row ids as int32. Tests lower it.
	maxRows int
	// breakerOff turns off the circuit breakers made after it is set —
	// the dataset breakers and the (shard, target) ones. Tests that
	// inject faults on purpose set it.
	breakerOff bool
}

// ErrorCounts is the per-class failure tally exposed by Stats.
type ErrorCounts struct {
	Invalid  int64 `json:"invalid"`
	Timeout  int64 `json:"timeout"`
	Shed     int64 `json:"shed"`
	Canceled int64 `json:"canceled"`
	Internal int64 `json:"internal"`
}

// datasetEntry is one catalog entry: the registered dataset and its
// chain of committed snapshots, the memoized fingerprint and name→node
// mapping, a shared edge-statistics cache so planning measures each
// edge once, and memoized plan choices — statistics and plans only: the
// hash tables measurement builds move to the artifact cache (see plan).
//
// Versioning: ds stays pinned to the snapshot registered at
// RegisterDataset — planning, schema resolution and backend content
// verification all key off it — while head tracks the latest committed
// snapshot, swapped atomically by Mutate. A query pins head once at
// admission and executes entirely against that snapshot (columns and
// liveness are copy-on-write, so a concurrent commit is invisible to
// it); plan choices are memoized over the registered snapshot's
// measured statistics and stay in use across versions — deltas shift
// cardinalities gradually, and re-registering under a new name replans
// from scratch when they have drifted too far.
type datasetEntry struct {
	name    string
	ds      *storage.Dataset
	fp      uint64
	nodeOf  map[string]plan.NodeID
	keyCols []string

	// head is the latest committed snapshot (initially ds).
	head atomic.Pointer[storage.Dataset]
	// verMu serializes writers: the storage delta chain is
	// single-writer per snapshot, so Mutate holds verMu from Begin
	// through the head swap.
	verMu sync.Mutex
	// versions is the retention window of recent snapshots' lineage
	// fingerprints — the dataset half of their artifact cache keys —
	// newest last, so retiring a version purges its keys in one sweep.
	// Guarded by verMu.
	versions []uint64

	// statsCache holds the registered snapshot's edge statistics,
	// measured once (see plan); the tables measuring builds are handed
	// to the artifact cache and released. Guarded by planMu.
	statsCache *workload.EdgeStatsCache

	// breaker is this dataset's load-shedding circuit breaker.
	breaker *breaker

	// met holds this dataset's executor-counter metric series, created
	// at registration (see metrics.go).
	met *datasetMetrics

	// shardSets memoizes hash partitions by shard count, with their
	// per-(shard, target) breakers (see shard.go). Each set is pinned
	// to one snapshot; Mutate advances live sets in lockstep with the
	// commit (shard.Advance) and shardSetFor rebuilds stale ones.
	shardMu   sync.Mutex
	shardSets map[int]*shardSet

	planMu sync.Mutex
	plans  map[planKey]core.PlanChoice
}

// planKey memoizes plan selection per (strategy restriction, output
// shape); auto selection (all six strategies) uses auto=true, and with
// paid=true it prices SJ phase 1 as paid (core.PlanRequest.Phase1Paid).
type planKey struct {
	auto, paid bool
	strategy   cost.Strategy
	flat       bool
}

// New creates a service with the given configuration.
func New(cfg Config) *Service {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = max(cfg.Parallelism, 2)
	}
	cfg.Shard = normalizeShardConfig(cfg.Shard)
	s := &Service{
		cfg:      cfg,
		cache:    newArtifactCache(cfg.CacheBytes),
		admit:    newAdmission(cfg.Parallelism, cfg.MaxConcurrent),
		targets:  newShardTargets(cfg.Shard),
		datasets: make(map[string]*datasetEntry),
		now:      time.Now,
		maxRows:  math.MaxInt32,
	}
	s.started = s.now()
	s.traces = telemetry.NewRing(cfg.TraceRing)
	s.met = newServiceMetrics(s)
	if cfg.SlowQueryMillis > 0 {
		w := cfg.SlowQueryLog
		if w == nil {
			w = os.Stderr
		}
		s.slowLog = &slowQueryLog{
			threshold: time.Duration(cfg.SlowQueryMillis) * time.Millisecond,
			w:         w,
		}
	}
	return s
}

// Registry exposes the service's metrics registry — the handler
// serves it at GET /metrics and in-process embedders read it directly.
func (s *Service) Registry() *telemetry.Registry { return s.met.reg }

// Traces returns up to limit recent trace records, newest first
// (limit <= 0 returns the whole ring) — the body of GET /v1/trace.
func (s *Service) Traces(limit int) []telemetry.TraceRecord {
	return s.traces.Snapshot(limit)
}

// acquireTrace recycles a span arena from the pool (or makes one on
// the service clock).
func (s *Service) acquireTrace() *telemetry.Trace {
	if v := s.tracePool.Get(); v != nil {
		tr := v.(*telemetry.Trace)
		tr.Reset()
		return tr
	}
	return telemetry.NewTrace(s.now)
}

// finishTrace closes the root span, materializes the span tree, files
// it in the recent-trace ring (and the slow-query log when total, the
// duration record also observed in the latency histogram, crossed the
// threshold), attaches it to the result when the request asked, and
// recycles the arena.
func (s *Service) finishTrace(c *execCall, res *Result, cls Class, total time.Duration) {
	if c.tr == nil {
		return
	}
	c.tr.End(c.parent)
	node := c.tr.Finish()
	rec := telemetry.TraceRecord{
		Time:         c.start,
		Dataset:      c.req.Dataset,
		Strategy:     res.Strategy,
		Class:        string(cls),
		TotalMillis:  float64(total) / float64(time.Millisecond),
		QueuedMillis: float64(res.Queued) / float64(time.Millisecond),
		Root:         node,
	}
	if s.slowLog != nil && total >= s.slowLog.threshold {
		rec.Slow, rec.PhaseMillis = true, phaseMillis(node)
		s.slowLog.log(rec)
	}
	s.traces.Add(rec)
	if c.req.Trace {
		res.Trace = node
	}
	s.tracePool.Put(c.tr)
}

// ErrDatasetExists is what registering a name the catalog already holds
// wraps; the HTTP face answers it with 409 Conflict.
var ErrDatasetExists = errors.New("already registered")

// DatasetInfo describes one catalog entry.
type DatasetInfo struct {
	Name        string `json:"name"`
	Relations   int    `json:"relations"`
	TotalRows   int    `json:"totalRows"`
	Fingerprint uint64 `json:"fingerprint"`
	// Version is the latest committed snapshot's version number (0
	// until the first Mutate commit).
	Version uint64 `json:"version"`
}

// RegisterDataset adds ds to the catalog under name. The dataset is
// validated and fingerprinted once here; all subsequent mutation must
// go through Service.Mutate, which commits snapshots through the
// storage delta API and re-keys the artifact cache per version —
// mutating the registered dataset in place would desynchronize the
// fingerprint-keyed cache. Registering an existing name is an error, and
// so is a relation with more rows than an int32 row id can address
// (ClassInvalid) — probe results would silently truncate.
func (s *Service) RegisterDataset(name string, ds *storage.Dataset) (DatasetInfo, error) {
	if err := s.checkName(name); err != nil {
		return DatasetInfo{}, err
	}
	if err := ds.Validate(); err != nil {
		return DatasetInfo{}, fmt.Errorf("service: invalid dataset %q: %w", name, err)
	}
	for i := 0; i < ds.Tree.Len(); i++ {
		if rel := ds.Relation(plan.NodeID(i)); rel.NumRows() > s.maxRows {
			return DatasetInfo{}, invalidErr(fmt.Errorf("dataset %q: relation %q has %d rows, past the int32 row-id range (%d)",
				name, rel.Name(), rel.NumRows(), s.maxRows))
		}
	}
	e := &datasetEntry{
		name:       name,
		ds:         ds,
		fp:         ds.Fingerprint(),
		nodeOf:     make(map[string]plan.NodeID, ds.Tree.Len()),
		keyCols:    make([]string, ds.Tree.Len()),
		statsCache: workload.NewEdgeStatsCache(),
		breaker:    newBreaker(s.breakerOff, s.now),
		plans:      make(map[planKey]core.PlanChoice),
	}
	e.head.Store(ds)
	e.versions = []uint64{ds.VersionFingerprint()}
	for i := 0; i < ds.Tree.Len(); i++ {
		id := plan.NodeID(i)
		e.nodeOf[ds.Tree.Name(id)] = id
		if id != plan.Root {
			e.keyCols[id] = ds.KeyColumn(id)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.datasets[name]; dup {
		return DatasetInfo{}, fmt.Errorf("service: dataset %q %w", name, ErrDatasetExists)
	}
	s.datasets[name] = e
	s.met.registerDataset(e)
	return s.infoLocked(e), nil
}

// checkName refuses an empty name or one the catalog already holds.
// RegisterDataset checks again under s.mu before it inserts: a
// concurrent registration may take the name in between.
func (s *Service) checkName(name string) error {
	if name == "" {
		return fmt.Errorf("service: dataset name must be non-empty")
	}
	if s.entry(name) != nil {
		return fmt.Errorf("service: dataset %q %w", name, ErrDatasetExists)
	}
	return nil
}

func (s *Service) infoLocked(e *datasetEntry) DatasetInfo {
	head := e.head.Load()
	return DatasetInfo{
		Name:        e.name,
		Relations:   e.ds.Tree.Len(),
		TotalRows:   head.TotalRows(),
		Fingerprint: e.fp,
		Version:     head.Version(),
	}
}

// entry returns the catalog entry for name (nil if absent).
func (s *Service) entry(name string) *datasetEntry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.datasets[name]
}

// Datasets lists the catalog in name order.
func (s *Service) Datasets() []DatasetInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(s.datasets))
	for _, e := range s.datasets {
		out = append(out, s.infoLocked(e))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RegisterRequest names a dataset and its source, and is the POST
// /v1/datasets body. Dir loads a directory written by m2mdata;
// otherwise the dataset is generated on Shape (plan.ShapeByName's,
// default snowflake32) with the CLIs' default statistic ranges, Rows
// driver rows (default 10000) and Seed.
type RegisterRequest struct {
	Name  string `json:"name"`
	Dir   string `json:"dir,omitempty"`
	Shape string `json:"shape,omitempty"`
	Rows  int    `json:"rows,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

// tree builds the join tree a generated dataset is laid out on.
func (r RegisterRequest) tree() (*plan.Tree, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	return plan.ShapeByName(cmp.Or(r.Shape, "snowflake32"), plan.UniformStats(rng, 0.2, 0.6, 1, 5))
}

// Register loads or generates the dataset req describes and adds it to
// the catalog (see RegisterDataset). The name, and a generated driver's
// row count, are checked before anything is loaded or generated, so a
// request the catalog would refuse costs nothing.
func (s *Service) Register(req RegisterRequest) (DatasetInfo, error) {
	if err := s.checkName(req.Name); err != nil {
		return DatasetInfo{}, err
	}
	if req.Dir != "" {
		ds, err := storage.LoadDataset(req.Dir)
		if err != nil {
			return DatasetInfo{}, err
		}
		return s.RegisterDataset(req.Name, ds)
	}
	tree, err := req.tree()
	if err != nil {
		return DatasetInfo{}, err
	}
	rows := req.Rows
	if rows <= 0 {
		rows = 10000
	}
	if rows > s.maxRows {
		return DatasetInfo{}, invalidErr(fmt.Errorf("dataset %q: %d driver rows, past the int32 row-id range (%d)",
			req.Name, rows, s.maxRows))
	}
	ds := workload.Generate(tree, workload.Config{DriverRows: rows, Seed: req.Seed})
	return s.RegisterDataset(req.Name, ds)
}

// StandardMix is the standard mixed-shape workload: three generated
// datasets and, per dataset, an auto-planned query, two fixed-strategy
// queries (one build-bound, one SJ, whose whole build side is cached)
// and a driver-selection variant. It registers nothing: callers pass
// regs to Register (m2mserve -preload) or post them to /v1/datasets
// (m2mload).
func StandardMix(rows int, seed int64) (regs []RegisterRequest, templates []Request) {
	for i, shape := range []string{"snowflake32", "star", "path"} {
		reg := RegisterRequest{Name: "load_" + shape, Shape: shape, Rows: rows, Seed: seed + int64(i)}
		tree, err := reg.tree()
		if err != nil {
			panic(err) // the shapes above are ShapeByName's own
		}
		regs = append(regs, reg)
		templates = append(templates,
			Request{Dataset: reg.Name},
			Request{Dataset: reg.Name, Strategy: "BVP+COM"},
			Request{Dataset: reg.Name, Strategy: "SJ+COM"},
			Request{Dataset: reg.Name, Strategy: "COM", Selections: []SelectionSpec{
				{Relation: tree.Name(plan.Root), Column: "id", Value: int64(i)},
			}},
		)
	}
	return regs, templates
}

// SelectionSpec is a pushed-down equality predicate addressed by
// relation name (the HTTP-friendly form of exec.Selection).
type SelectionSpec struct {
	Relation string `json:"relation"`
	Column   string `json:"column"`
	Value    int64  `json:"value"`
}

// Request describes one query.
type Request struct {
	// Dataset names a registered catalog entry.
	Dataset string `json:"dataset"`
	// Strategy fixes the execution strategy ("STD", "COM", "BVP+STD",
	// "BVP+COM", "SJ+STD", "SJ+COM", case-insensitive, - and _ accepted
	// for +). Empty or "auto" lets the planner choose the cheapest.
	Strategy string `json:"strategy,omitempty"`
	// FlatOutput requests flat result tuples (COM variants then run
	// the expansion phase).
	FlatOutput bool `json:"flat,omitempty"`
	// Parallelism caps this query's workers below its admission grant
	// (0 = use the full grant).
	Parallelism int `json:"parallelism,omitempty"`
	// ChunkSize overrides the driver batch size (0 = default).
	ChunkSize int `json:"chunkSize,omitempty"`
	// TimeoutMillis is the query's deadline in milliseconds, covering
	// planning, admission queueing and execution. On expiry the query
	// fails with ClassTimeout; one that expired while it planned is not
	// admitted. Cancellation is polled between driver chunks and
	// between build morsels, so the slot is released only once the
	// chunk or morsel in flight finishes. 0 leaves only the client
	// context's deadline.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// Selections are pushed-down equality predicates.
	Selections []SelectionSpec `json:"selections,omitempty"`
	// ShardCount, when positive, makes this a shard-worker request: the
	// query executes only shard ShardIndex of the dataset's ShardCount-
	// way hash partition, reporting results in global driver
	// coordinates. This is how a sharded frontend dispatches work to
	// replica backends; any server can act as a shard worker without
	// shard configuration of its own.
	ShardCount int `json:"shardCount,omitempty"`
	ShardIndex int `json:"shardIndex,omitempty"`
	// MinCoverage, on a sharded service, accepts a degraded result when
	// shards fail: if the row-weighted fraction of the driver relation
	// served is at least MinCoverage, the survivors' merge is returned
	// with Stats.Coverage < 1 and Stats.FailedShards naming the gaps.
	// 0 (the default) requires full coverage.
	MinCoverage float64 `json:"minCoverage,omitempty"`
	// Trace requests a per-phase span tree on the result
	// (Result.Trace): admission queueing, phase-1 builds, semi-join
	// reduction, shard dispatches, the probe loop and the merge, each
	// with wall-clock offsets and durations. Queries that do not ask
	// carry a nil trace collector through the whole stack — the
	// disabled path costs one pointer test per span site.
	Trace bool `json:"trace,omitempty"`
}

// Result is one query's outcome. Beside an error it still says what was
// attempted and for how long (Elapsed, Queued, Trace), but carries no
// answer.
type Result struct {
	Dataset  string `json:"dataset"`
	Strategy string `json:"strategy"`
	Order    string `json:"order"`
	// Workers is the parallelism the query ran with after admission.
	Workers int `json:"workers"`
	// Version is the dataset snapshot the query executed against,
	// pinned once at admission: a commit landing mid-flight is
	// invisible, and Stats/checksum are bit-identical to any other
	// execution of this version.
	Version uint64 `json:"version"`
	// Elapsed is the wall time of the execute stage alone: planning
	// and admission queueing are not in it.
	Elapsed time.Duration `json:"elapsedNs"`
	// Queued is the time spent waiting for admission.
	Queued time.Duration `json:"queuedNs"`
	// Shards is the number of partitions the query scattered over
	// (0 when it executed unsharded).
	Shards int `json:"shards,omitempty"`
	// Coverage is the row-weighted fraction of the driver relation the
	// result covers: 1 for a complete answer, less when failed shards
	// were tolerated under Request.MinCoverage.
	Coverage float64 `json:"coverage"`
	// FailedShards names the shards missing from a degraded result.
	FailedShards []int `json:"failedShards,omitempty"`
	// Stats are the executor counters, including CacheHits /
	// CacheMisses / BytesCached for the artifact cache.
	Stats exec.Stats `json:"stats"`
	// Trace is the query's span tree, present when Request.Trace was
	// set (and on every query when the slow-query log or ring tracing
	// is enabled).
	Trace *telemetry.SpanNode `json:"trace,omitempty"`
}

// Query answers one query in five stages — plan, admit, resolve,
// execute, record — sharing phase-1 artifacts through the cache. The
// two execution paths (scatter-gather and solo; a shard-worker request
// is a solo run over one shard's rows) differ in the execute stage
// only.
//
// The resilience contract: cancellation of ctx aborts both queueing
// and execution promptly; Request.TimeoutMillis starts before planning
// and is polled once it is done (a cold plan's measurement does not
// poll it), by admission, and by the executor between driver chunks,
// reduction spans and build morsels; overload (full admission queue,
// admission wait exceeded, open circuit breaker, draining service) is
// shed with a typed
// ClassShed error carrying a jittered retry hint; and every failure —
// including worker panics, which the executor converts into errors —
// comes back as a *QueryError with a Class, never as a crashed
// process. Every goroutine a query starts is joined before Query
// returns, so it holds its admission slot exactly as long as its work
// runs, and the deferred release plus record's recover boundary
// guarantee a failed query cannot leak the slot.
func (s *Service) Query(ctx context.Context, req Request) (res Result, err error) {
	c := execCall{req: req, start: s.now(), parent: telemetry.NoParent}
	// The trace collector exists only when someone will read it — the
	// request asked, the slow-query log needs phase breakdowns, or the
	// operator turned ring tracing on. Untraced queries carry a nil
	// *Trace through the whole stack (every span site is a nil-receiver
	// no-op).
	if req.Trace || s.slowLog != nil || s.cfg.TraceRing > 0 {
		c.tr = s.acquireTrace()
		c.parent = c.tr.Start("query", telemetry.NoParent)
	}
	var out outcome
	// Record: deferred first, so it runs after the slot is released,
	// whichever stage returned or panicked.
	defer func() { res, err = s.record(&c, out, err, recover()) }()
	if ctx == nil {
		ctx = context.Background()
	}
	// A request cancelled before it arrived does no work at all, not even
	// a cold plan's measurement.
	if err = ctx.Err(); err != nil {
		c.e = s.entry(req.Dataset)
		return
	}

	// The per-query deadline covers planning, queueing and execution: a
	// query that burned its budget planning or waiting must not execute.
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}

	// Plan, before admission: the first plan per (strategy, flat) pair
	// measures edge statistics and runs the optimizer search, which
	// uses no executor workers — holding an admission slot through it
	// would head-of-line-block warm queries behind cold-start planning.
	// Its table builds therefore run outside admission, at GOMAXPROCS.
	if err = s.planQuery(&c); err != nil {
		return
	}
	if err = ctx.Err(); err != nil {
		return
	}

	// Admit.
	release, err := s.admitQuery(ctx, &c)
	if err != nil {
		return
	}
	defer release()

	// Resolve, once: a commit landing mid-flight swaps the entry head but
	// never the pinned snapshot.
	set, snap, rows, err := s.resolve(&c)
	if err != nil {
		return
	}

	// Execute, on the warm choice when its phase 1 is resident for snap.
	started := s.now()
	s.adoptResident(&c, snap)
	if set != nil {
		out, err = s.scatter(ctx, c, set)
	} else {
		out.stats, err = s.run(ctx, c, snap, rows, nil)
	}
	out.version = snap.Version()
	out.elapsed = s.now().Sub(started)
	return
}

// execCall is one Query call's state, filled stage by stage and read by
// every execution path.
type execCall struct {
	req   Request
	start time.Time
	// tr/parent carry the query's trace into the executor (nil trace =
	// untraced, as everywhere).
	tr     *telemetry.Trace
	parent telemetry.SpanID

	// From the plan stage; e is nil for an unknown dataset and strategy
	// empty until a plan is chosen. An auto query's warm is its choice
	// with SJ phase 1 priced as paid (zero for a fixed strategy); the
	// execute stage may run it instead (adoptResident).
	e        *datasetEntry
	sels     []exec.Selection
	choice   core.PlanChoice
	warm     core.PlanChoice
	strategy string

	// From the admit stage; allowed means the dataset breaker let the
	// query through and is owed its outcome.
	allowed bool
	queued  time.Duration
	workers int
}

// outcome is what the execute stage hands to record: shards is set by
// a scatter, and elapsed is the stage's wall time.
type outcome struct {
	stats   exec.Stats
	version uint64
	elapsed time.Duration
	shards  int
}

// planQuery is the plan stage: validate the request against the
// catalog, resolve its selections and pick the memoized plan.
func (s *Service) planQuery(c *execCall) error {
	req := c.req
	if c.e = s.entry(req.Dataset); c.e == nil {
		return invalidErr(fmt.Errorf("unknown dataset %q", req.Dataset))
	}
	var err error
	if c.sels, err = c.e.resolveSelections(req.Selections); err != nil {
		return invalidErr(err)
	}
	if req.MinCoverage < 0 || req.MinCoverage > 1 {
		return invalidErr(fmt.Errorf("minCoverage %v outside [0, 1]", req.MinCoverage))
	}
	if req.ShardCount < 0 || req.ShardCount > shard.MaxShards {
		return invalidErr(fmt.Errorf("shardCount %d outside [0, %d]", req.ShardCount, shard.MaxShards))
	}
	if req.ShardCount > 0 && (req.ShardIndex < 0 || req.ShardIndex >= req.ShardCount) {
		return invalidErr(fmt.Errorf("shardIndex %d outside [0, %d)", req.ShardIndex, req.ShardCount))
	}
	// A longer deadline would wrap negative as a time.Duration and time
	// the query out at once.
	if maxMillis := int64(math.MaxInt64 / time.Millisecond); req.TimeoutMillis > maxMillis {
		return invalidErr(fmt.Errorf("timeoutMillis %d above %d", req.TimeoutMillis, maxMillis))
	}
	psp := c.tr.Start("plan", c.parent)
	c.choice, c.warm, err = s.plan(c.e, req.Strategy, req.FlatOutput)
	c.tr.End(psp)
	if err != nil {
		return invalidErr(err)
	}
	c.strategy = c.choice.Strategy.String()
	return nil
}

// adoptResident is the sunk-cost rule: an auto query whose choice is
// not SJ runs its warm choice instead when that is SJ and its whole
// phase 1 is resident for snap under the query's selections — already
// paid, so phase 2 alone was priced. The check counts no lookup and
// promotes nothing; a build side evicted before the run takes it is
// reduced again. A local scatter decides here once for all its shards;
// a shard worker's request names its strategy.
func (s *Service) adoptResident(c *execCall, snap *storage.Dataset) {
	if c.warm.Strategy.Reduction() != cost.SemiJoin || c.choice.Strategy.Reduction() == cost.SemiJoin {
		return
	}
	key := buildSideKey(snap.VersionFingerprint(), c.e.ds.Tree.Len(), c.sels, c.warm.SemiJoins)
	if e := s.cache.peek(key); e != nil && e.snap == snap {
		c.choice, c.strategy = c.warm, c.warm.Strategy.String()
	}
}

// admitQuery is the admit stage: shed if draining, ask the dataset's
// breaker — a known-unhealthy workload should not consume queue depth —
// and wait for an admission slot. The caller releases the slot.
func (s *Service) admitQuery(ctx context.Context, c *execCall) (release func(), err error) {
	if err := s.shedIfDraining(); err != nil {
		return nil, err
	}
	if err := c.e.breaker.allow(); err != nil {
		return nil, err
	}
	c.allowed = true
	enqueued := s.now()
	workers, release, err := s.admit.acquire(ctx)
	if err != nil {
		return nil, err
	}
	c.queued = s.now().Sub(enqueued)
	// The queue span is retroactive: only now is the wait known to be
	// over (and to have been worth a span at all).
	c.tr.AddSpan("queue", c.parent, enqueued, enqueued.Add(c.queued))
	s.met.queueWait.Observe(c.queued)
	// A drain that began while the query queued sheds it too.
	if err := s.shedIfDraining(); err != nil {
		release()
		return nil, err
	}
	c.workers = workers
	if p := c.req.Parallelism; p > 0 && p < workers {
		c.workers = p
	}
	s.met.queries.Inc()
	return release, nil
}

// resolve is the resolve stage: pin what the query executes against. A
// plain query pins the head snapshot. A client query on a sharded
// service pins the configured partition (set non-nil: scatter over it),
// and a shard-worker request (ShardCount > 0 — how a sharded frontend
// dispatches to replica backends; any server serves them) the requested
// shard's driver row set, both with the snapshot the partition
// reflects. Everything else — plan, artifact keys, row coordinates — is
// the whole snapshot's.
func (s *Service) resolve(c *execCall) (set *shardSet, snap *storage.Dataset, rows *storage.Bitmap, err error) {
	scatter := c.req.ShardCount == 0 && s.sharded()
	n := c.req.ShardCount
	if scatter {
		n = s.cfg.Shard.Shards
	}
	if n <= 1 && !scatter {
		return nil, c.e.head.Load(), nil, nil
	}
	if set, err = c.e.shardSetFor(s, n); err != nil {
		return nil, nil, nil, invalidErr(err)
	}
	if scatter {
		return set, set.snapshot(), nil, nil
	}
	snap, rows = set.pin(c.req.ShardIndex)
	return nil, snap, rows, nil
}

// run executes c's plan on the pinned snapshot snap, restricted to the
// driver rows in rows (nil = every row) — the service's one call into
// the executor, behind the solo path, shard-worker requests and local
// shard attempts alike. Artifacts always key on snap's own (lineage
// fingerprint, version) — a shard's row set never enters the key, so
// all shards of a snapshot share one set of tables, and commit-time
// repair covers them by construction. Every strategy gets the provider;
// an SJ run adopts build, the build side a local scatter took for all
// its shards, or else its snapshot's own from Service.buildSide
// (cached, or reduced now through the provider) — either way its whole
// phase 1, so the run reduces nothing; its Stats report phase 1 adopted
// only when the query found it cached.
func (s *Service) run(ctx context.Context, c execCall, snap *storage.Dataset, rows *storage.Bitmap, build *exec.BuildSide) (exec.Stats, error) {
	opts := s.execOptions(ctx, c, snap, rows)
	var side exec.Stats
	own := build == nil && c.choice.Strategy.Reduction() == cost.SemiJoin
	if own {
		var err error
		if build, side, err = s.buildSide(snap, c.choice, opts); err != nil {
			return exec.Stats{}, err
		}
	}
	opts.BuildSide = build
	st, err := core.Execute(snap, c.choice, opts)
	if own {
		addBuildSide(&st, side)
	}
	return st, err
}

// execOptions are the executor options of c's run on snap over rows.
func (s *Service) execOptions(ctx context.Context, c execCall, snap *storage.Dataset, rows *storage.Bitmap) exec.Options {
	return exec.Options{
		FlatOutput:  c.req.FlatOutput,
		ChunkSize:   c.req.ChunkSize,
		Parallelism: c.workers,
		Ctx:         ctx,
		Artifacts:   s.artifactsFor(snap, c.e, c.sels),
		Selections:  c.sels,
		DriverRows:  rows,
		Trace:       c.tr,
		TraceParent: c.parent,
	}
}

// record is the record stage, the only place a Query call is accounted
// for: it turns a panic from any earlier stage (outside the executor's
// own guards) into an internal error, gives the error its class, feeds
// the dataset breaker, bumps the error counter and the latency
// histogram — one observation per call, taken from the very Result and
// error the caller receives, so registry totals reconcile exactly with
// /v1/stats and client-side sums — stamps the Result and files the
// trace.
func (s *Service) record(c *execCall, out outcome, err error, panicked any) (Result, error) {
	if panicked != nil {
		err = fmt.Errorf("query panic: %v", panicked)
	}
	qe := asQueryError(err)
	var cls Class
	if qe != nil {
		cls = qe.Class
		s.met.errorsOf(cls).Inc()
	}
	// The breaker counts engine failures and deadline expiries; sheds
	// and client cancellations release their probe slot without feeding
	// back into the window (see breaker.done).
	if c.allowed {
		c.e.breaker.done(cls)
	}
	var st *exec.Stats
	if qe == nil {
		// Stats.BytesCached comes from the cache the execution ran
		// against: this service's own, or — when the shards ran on replica
		// backends, each of which stamped its own — the largest of theirs,
		// which the merge already carries.
		out.stats.BytesCached = max(out.stats.BytesCached, s.cache.stats().Bytes)
		st = &out.stats
	}
	res := Result{
		Dataset:      c.req.Dataset,
		Strategy:     c.strategy,
		Order:        c.choice.Order.String(),
		Workers:      c.workers,
		Version:      out.version,
		Elapsed:      out.elapsed,
		Queued:       c.queued,
		Shards:       out.shards,
		Coverage:     out.stats.Coverage,
		FailedShards: out.stats.FailedShards,
		Stats:        out.stats,
	}
	total := s.now().Sub(c.start)
	s.met.recordQuery(c.e, c.strategy, cls, total, st)
	s.finishTrace(c, &res, cls, total)
	if qe == nil {
		return res, nil
	}
	return res, qe
}

// resolveSelections maps name-addressed selection specs to
// exec.Selections.
func (e *datasetEntry) resolveSelections(specs []SelectionSpec) ([]exec.Selection, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	sels := make([]exec.Selection, len(specs))
	for i, sp := range specs {
		id, ok := e.nodeOf[sp.Relation]
		if !ok {
			return nil, fmt.Errorf("service: dataset %q has no relation %q", e.name, sp.Relation)
		}
		if !e.ds.Relation(id).HasColumn(sp.Column) {
			return nil, fmt.Errorf("service: relation %q has no column %q", sp.Relation, sp.Column)
		}
		sels[i] = exec.Selection{Rel: id, Column: sp.Column, Value: sp.Value}
	}
	return sels, nil
}

// plan returns the memoized plan choice for the strategy restriction
// and, for auto selection, the warm choice: the auto choice with SJ
// phase 1 priced as paid, from the same statistics. Edge statistics are
// measured once per dataset through the entry's shared stats cache; the
// optimizer search runs once per (strategy, flat) pair, twice for auto,
// and never per query. The hash tables that measurement builds belong
// to the artifact cache, not to the catalog: those valid for head are
// offered to it under head's keys — where the first query finds them
// instead of building them again — and the stats cache lets go of
// them, so every table the service keeps alive is charged to the byte
// budget. (Every execution passes its own provider, so the memoized
// choice never reads the stats cache.)
func (s *Service) plan(e *datasetEntry, strategy string, flat bool) (choice, warm core.PlanChoice, err error) {
	key := planKey{auto: true, flat: flat}
	var restrict []cost.Strategy
	if strategy != "" && strategy != "auto" {
		st, ok := cost.ParseStrategy(strategy)
		if !ok {
			return choice, warm, fmt.Errorf("service: unknown strategy %q", strategy)
		}
		key = planKey{strategy: st, flat: flat}
		restrict = []cost.Strategy{st}
	}
	warmKey := planKey{auto: true, paid: true, flat: flat}
	e.planMu.Lock()
	defer e.planMu.Unlock()
	if choice, ok := e.plans[key]; ok {
		if key.auto {
			warm = e.plans[warmKey]
		}
		return choice, warm, nil
	}
	req := core.PlanRequest{
		Dataset:      e.ds,
		MeasureStats: true,
		StatsCache:   e.statsCache,
		FlatOutput:   flat,
		Strategies:   restrict,
	}
	if choice, err = core.ChoosePlan(req); err != nil {
		return choice, warm, err
	}
	if key.auto {
		req.Phase1Paid = true
		if warm, err = core.ChoosePlan(req); err != nil {
			return choice, warm, err
		}
		e.plans[warmKey] = warm
	}
	s.seedArtifacts(e)
	e.statsCache.ReleaseTables()
	e.plans[key] = choice
	return choice, warm, nil
}

// seedArtifacts offers the stats cache's tables valid for head — those
// of the relations no commit has touched since the registered snapshot
// (EdgeStatsCache.Tables) — to the artifact cache under head's keys. A
// commit racing past the load costs at most entries the next one
// purges, and a version already out of the retention window is
// declined by the put itself (queryArtifacts.put).
func (s *Service) seedArtifacts(e *datasetEntry) {
	head := e.head.Load()
	arts := s.artifactsFor(head, e, nil)
	for id, tbl := range e.statsCache.Tables(head) {
		if tbl != nil {
			arts.PutTable(plan.NodeID(id), tbl)
		}
	}
}

// artifactsFor builds the per-query cache view: the executing
// snapshot's lineage fingerprint and version plus one selection
// fingerprint per relation, hashed over the relation's own (column,
// value) predicates in canonical order so equivalent selection sets
// share artifacts.
func (s *Service) artifactsFor(snap *storage.Dataset, e *datasetEntry, sels []exec.Selection) exec.Artifacts {
	maskFPs := make([]uint64, e.ds.Tree.Len())
	if len(sels) > 0 {
		perRel := make(map[plan.NodeID][]exec.Selection)
		for _, sel := range sels {
			perRel[sel.Rel] = append(perRel[sel.Rel], sel)
		}
		for id, list := range perRel {
			sort.Slice(list, func(i, j int) bool {
				if list[i].Column != list[j].Column {
					return list[i].Column < list[j].Column
				}
				return list[i].Value < list[j].Value
			})
			h := storage.FingerprintSeed
			for _, sel := range list {
				h = storage.FingerprintString(h, sel.Column)
				h = storage.FingerprintUint64(h, uint64(sel.Value))
			}
			maskFPs[id] = h
		}
	}
	return &queryArtifacts{
		svc:     s,
		entry:   e,
		dataset: snap.VersionFingerprint(),
		maskFPs: maskFPs,
	}
}

// Stats is a service-wide counter snapshot.
type Stats struct {
	Datasets int   `json:"datasets"`
	Queries  int64 `json:"queries"`
	// UptimeMillis is the time since the service was created.
	UptimeMillis int64 `json:"uptimeMillis"`
	// GoVersion is the runtime the process was built with.
	GoVersion string `json:"goVersion"`
	// StatsGeneration increments on every snapshot taken, so pollers
	// can tell two identical-looking snapshots apart (and detect a
	// restarted server by a generation going backwards).
	StatsGeneration int64 `json:"statsGeneration"`
	// Mutations counts committed Mutate calls; Repairs counts cached
	// artifacts carried onto a new version in place instead of being
	// rebuilt from scratch.
	Mutations int64 `json:"mutations"`
	Repairs   int64 `json:"repairs"`
	// SharedScans and SharedScanMembers are always 0: shared-scan
	// batching was removed, and the fields stay only because the
	// benchmark harness (benchmark/run.go) reads them.
	SharedScans       int64 `json:"sharedScans"`
	SharedScanMembers int64 `json:"sharedScanMembers"`
	Active            int   `json:"active"`
	// Queued is the number of queries waiting for admission.
	Queued int `json:"queued"`
	// Draining reports whether the service has stopped admitting.
	Draining bool       `json:"draining"`
	Cache    CacheStats `json:"cache"`
	// Errors tallies failed queries by class since creation.
	Errors ErrorCounts `json:"errors"`
	// Latency summarises the m2m_query_duration_seconds histogram over
	// all its series: every Query call since creation, success or
	// failure, timed end to end. The quantiles are interpolated within
	// the histogram's power-of-two buckets.
	Latency struct {
		Count int64         `json:"count"`
		P50   time.Duration `json:"p50Ns"`
		P95   time.Duration `json:"p95Ns"`
		P99   time.Duration `json:"p99Ns"`
	} `json:"latency"`
	// Breakers snapshots every dataset's circuit breaker, in name
	// order.
	Breakers []BreakerInfo `json:"breakers,omitempty"`
	// Sharding reports the scatter-gather tier (nil when unsharded).
	Sharding *ShardingStats `json:"sharding,omitempty"`
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	s.mu.RLock()
	nds := len(s.datasets)
	breakers := make([]BreakerInfo, 0, nds)
	for _, e := range s.datasets {
		breakers = append(breakers, e.breaker.snapshot(e.name))
	}
	s.mu.RUnlock()
	sort.Slice(breakers, func(i, j int) bool { return breakers[i].Dataset < breakers[j].Dataset })
	st := Stats{
		Datasets:        nds,
		Queries:         s.met.queries.Value(),
		UptimeMillis:    s.now().Sub(s.started).Milliseconds(),
		GoVersion:       runtime.Version(),
		StatsGeneration: s.statsGen.Add(1),
		Mutations:       s.met.mutations.Value(),
		Repairs:         s.met.repairs.Value(),
		Active:          s.admit.activeCount(),
		Queued:          s.admit.queuedCount(),
		Draining:        s.draining.Load(),
		Cache:           s.cache.stats(),
		Errors: ErrorCounts{
			Invalid:  s.met.errorsOf(ClassInvalid).Value(),
			Timeout:  s.met.errorsOf(ClassTimeout).Value(),
			Shed:     s.met.errorsOf(ClassShed).Value(),
			Canceled: s.met.errorsOf(ClassCanceled).Value(),
			Internal: s.met.errorsOf(ClassInternal).Value(),
		},
		Breakers: breakers,
		Sharding: s.shardingStats(),
	}
	qs, n := s.met.reg.HistogramQuantiles(metricQueryDuration, []float64{0.50, 0.95, 0.99})
	st.Latency.Count, st.Latency.P50, st.Latency.P95, st.Latency.P99 = n, qs[0], qs[1], qs[2]
	return st
}

// shedIfDraining is the rejection a draining service gives new work
// (nil while it is not draining).
func (s *Service) shedIfDraining() error {
	if !s.draining.Load() {
		return nil
	}
	return shedErr(fmt.Errorf("service is draining"), jitter(time.Second))
}

// StartDrain makes the service stop admitting new queries: every
// subsequent Query is shed with ClassShed while queries already
// admitted run to completion. Idempotent.
func (s *Service) StartDrain() { s.draining.Store(true) }

// Drain gracefully quiesces the service: it stops admitting new
// queries and waits until every admitted query has finished (the
// admission active count reaches zero) or ctx expires, whichever
// comes first. It returns nil on a clean drain and ctx.Err() if
// in-flight queries outlived the deadline. Safe to call once
// concurrent traffic is still arriving — late arrivals are shed, not
// queued.
func (s *Service) Drain(ctx context.Context) error {
	s.StartDrain()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if s.admit.activeCount() == 0 && s.admit.queuedCount() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}
