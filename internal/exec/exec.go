// Package exec is the vectorized left-deep pipeline executor of the
// prototype (Section 4): batch-at-a-time execution over columnar
// relations with six interchangeable strategies — standard
// materializing execution (STD) or factorized execution (COM), each
// optionally combined with bitvector-based early pruning (Section 4.4)
// or semi-join full reduction (Section 4.5).
//
// The executor counts every hash-table probe, bitvector probe,
// semi-join probe and expanded tuple; the weighted sum of these is the
// abstract cost metric validated against the cost model in Fig. 14.
//
// Execution is chunk-pipelined and optionally parallel in both
// phases, on one fan-out loop (par.For). Phase 1 (the build phase)
// produces read-only hash tables, bitvectors and — for SJ strategies —
// fully reduced word-packed liveness masks, fanning out across
// Options.Parallelism workers: relations build concurrently, each hash
// table is built by the two-pass morsel scheme, and semi-join
// reduction splits the mask into word-aligned chunks. Every build polls
// run.buildStop, where cancellation and the build-morsel failpoint
// meet. Phase 2 then distributes driver chunks across
// the same worker count, each worker owning private counters and a
// scratch (tuple buffers, probe buffers, a reusable factor chunk)
// borrowed from a process-wide free list and handed back after the
// merge (scratch.go). The output checksum is an order-independent sum,
// every counter is additive, and the phase-1 structures are
// bit-identical to a sequential build, so results are identical at any
// worker count.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"m2mjoin/internal/bitvector"
	"m2mjoin/internal/buf"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/hashtable"
	"m2mjoin/internal/par"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/telemetry"
)

// DefaultChunkSize matches the paper's initial chunk size.
const DefaultChunkSize = 2048

// Options configure one query execution.
type Options struct {
	// Strategy selects one of the six execution approaches.
	Strategy cost.Strategy
	// Order is the left-deep join order (a permutation of the non-root
	// relations honoring precedence constraints).
	Order plan.Order
	// FlatOutput requests flat result tuples. COM variants then run the
	// final expansion phase; STD variants always produce flat tuples.
	FlatOutput bool
	// ChunkSize is the driver batch size (DefaultChunkSize when 0).
	ChunkSize int
	// Parallelism is the number of worker goroutines used by both
	// phases: phase-1 builds (hash tables, bitvectors, semi-join
	// reduction) and the driver-chunk probe phase. 0 and 1 run
	// sequentially on the calling goroutine; negative values use
	// GOMAXPROCS. All counters and the checksum are bit-identical at
	// any worker count.
	Parallelism int
	// SemiJoins optionally fixes the phase-1 semi-join order per parent
	// for the SJ strategies; children not listed (or a nil map) are
	// probed in ascending NodeID order.
	SemiJoins map[plan.NodeID][]plan.NodeID
	// Residuals are non-tree equi-join predicates for cyclic queries,
	// checked on every result tuple before it is emitted (the paper's
	// spanning-tree treatment of cyclic join graphs).
	Residuals []Residual
	// BreadthFirstExpand switches the COM expansion phase to the
	// breadth-first variant (Section 4.3's alternative); identical
	// output, different memory/locality trade-off.
	BreadthFirstExpand bool
	// NoInterleave is an ablation switch: phase-2 probe chains run
	// their links sequentially — each relation's batch probe (and each
	// bitvector filter pass) drains completely before the next
	// relation's starts — instead of the default round-robin interleaved
	// wavefront that overlaps directory misses across relations, and
	// the phase-1 semi-join pass reduces siblings one at a time instead
	// of span-skewed. Stats and checksums are bit-identical either way
	// (pinned by the interleave differential tests); the switch exists
	// to measure what the overlap buys.
	NoInterleave bool
	// Selections are pushed-down equality predicates evaluated on the
	// base relations before execution (Section 2.1's assumption).
	Selections []Selection
	// Ctx optionally bounds the execution. Workers poll it cooperatively
	// — between driver chunks in phase 2, between relation builds and
	// reduction chunks in phase 1, and between build morsels inside the
	// parallel hash-table build — so an aborted query stops burning
	// workers promptly. Once the context is done, Run returns an error
	// satisfying errors.Is(err, ctx.Err()) (context.Canceled or
	// context.DeadlineExceeded). Nil leaves execution unbounded.
	Ctx context.Context
	// Artifacts optionally injects pre-built base-mask hash tables and
	// receives the ones built by this run — the serving layer's shared
	// artifact cache, or the tables a plan's statistics were measured
	// with (core.PlanChoice.Tables). A non-nil Table result is used
	// as-is and skips that build entirely; a miss builds as usual and
	// hands the result back via PutTable. A BVP strategy's bitvector
	// travels inside its table (bitvector.FromTable). Implementations
	// must be safe for concurrent use (phase 1 fans out across
	// relations) and must return tables built over the same relation,
	// key column and base mask (selection ∧ snapshot liveness) this run
	// would build — the cache guarantees that by keying on (dataset
	// fingerprint, relation, key column, mask fingerprint). Every
	// strategy consults the provider for the
	// relations it does not reduce: STD/COM/BVP for all of them, SJ for
	// the childless ones, whose table no semi-join touches. A relation
	// SJ does reduce gets a per-query table over its reduced mask, which
	// is not shareable and is neither requested nor offered.
	Artifacts Artifacts
	// DriverRows, when non-nil, restricts the driver scan to the marked
	// rows: one bit per physical driver row, ANDed into the root mask
	// exactly where root selections and snapshot liveness land, so the
	// semi-join root reduction, chunking and shared-scan compatibility
	// see one driver row set and nothing else is restriction-aware. The
	// scatter-gather layer sets it to a shard's row set (shard.Shard.
	// Rows); every other structure — build side, artifacts, emitted row
	// coordinates — is the unrestricted snapshot's. Read-only.
	DriverRows *storage.Bitmap
	// CollectOutput, when set, receives every flat output tuple as the
	// base-relation row indices in ascending NodeID order. The slice is
	// freshly allocated per call and may be retained. Only valid with
	// FlatOutput; with Parallelism > 1 the callback is serialized but
	// the tuple order is nondeterministic. Intended for small
	// verification queries.
	CollectOutput func(rows []int32)
	// Trace optionally collects this run's span tree: the executor
	// opens spans under TraceParent at every phase boundary — the
	// enclosing exec span, phase 1 with one span per relation build /
	// filter build / semi-join reduction, and phase 2's probe chunk
	// loop and merge. Spans are per phase, never per chunk, so tracing
	// cost is O(relations), not O(rows). When nil (the default) every
	// span call is a nil-receiver no-op — one pointer test, zero
	// allocations — so the probe hot path's allocation-free invariants
	// hold unchanged (pinned by the telemetry allocation tests).
	Trace *telemetry.Trace
	// TraceParent is the span the executor's exec span nests under
	// (telemetry.NoParent for a root). Ignored when Trace is nil.
	TraceParent telemetry.SpanID
}

// Artifacts supplies and receives the one kind of phase-1 artifact
// that outlives a query: immutable base-mask hash tables, shared across
// queries by a serving layer or carried from planning into execution
// (see Options.Artifacts for the contract).
type Artifacts interface {
	// Table returns the cached hash table for relation id, or nil on a
	// miss.
	Table(id plan.NodeID) *hashtable.Table
	// PutTable offers a freshly built table for relation id to the
	// cache.
	PutTable(id plan.NodeID, t *hashtable.Table)
}

// Stats are the measured execution counters.
type Stats struct {
	// HashProbes is the number of hash-table probes.
	HashProbes int64
	// FilterProbes is the number of bitvector probes (BVP strategies).
	FilterProbes int64
	// SemiJoinProbes is the number of phase-1 semi-join probes (SJ
	// strategies).
	SemiJoinProbes int64
	// BuildSemiJoinProbes is the subset of SemiJoinProbes spent reducing
	// the non-driver relations. Those reductions never touch the driver
	// — the driver is nobody's child, so it is only ever the target of
	// the final root reduction — which means they are a pure function of
	// the build side and come out identical in every shard's run of a
	// partitioned query. MergeShardStats uses this split to count that
	// repeated work once instead of once per shard; BuildTagHits /
	// BuildTagMisses are the matching split of the tag counters. All
	// three are zero for non-SJ strategies.
	BuildSemiJoinProbes int64
	// BuildTagHits — see BuildSemiJoinProbes.
	BuildTagHits int64
	// BuildTagMisses — see BuildSemiJoinProbes.
	BuildTagMisses int64
	// TagHits / TagMisses split every hash-table probe (HashProbes plus
	// SemiJoinProbes) by the tagged directory's Bloom-tag filter: a
	// TagMiss was answered by the directory word alone — the key's tag
	// bit was absent, so no key data was loaded — while a TagHit went
	// on to verify a contiguous bucket run (and may still have found no
	// match: a tag false positive behaves like a hash collision).
	// TagHits + TagMisses == HashProbes + SemiJoinProbes always.
	TagHits int64
	// TagMisses — see TagHits.
	TagMisses int64
	// OutputTuples is the number of flat result tuples (counted even
	// when the output stays factorized).
	OutputTuples int64
	// ExpandedTuples is the number of tuples materialized by the COM
	// expansion phase (equals OutputTuples when FlatOutput is set for a
	// COM variant, 0 otherwise).
	ExpandedTuples int64
	// IntermediateTuples is the number of intermediate tuples
	// materialized by STD variants across all joins.
	IntermediateTuples int64
	// FactorizedRows is the total number of live factorized rows
	// (COM variants, factorized output).
	FactorizedRows int64
	// CacheHits counts hash tables served from Options.Artifacts instead
	// of being built; CacheMisses counts tables built by this run and
	// offered back. Bitvector filters are not counted: they are part of
	// their table. Both are zero when no provider is configured — runs
	// differing only in these fields (and BytesCached) are otherwise
	// bit-identical.
	CacheHits int64
	// CacheMisses — see CacheHits.
	CacheMisses int64
	// BytesCached is the serving layer's artifact-cache residency after
	// the run; the executor itself leaves it 0.
	BytesCached int64
	// Coverage is the fraction of driver rows the result accounts for,
	// weighted by row count: always 1.0 for a direct Run, and for a
	// full-coverage scatter-gather merge; a degraded merge (some shards
	// failed but the caller accepted partial results) reports the
	// surviving fraction in (0, 1).
	Coverage float64
	// FailedShards lists the shard indices excluded from a degraded
	// scatter-gather merge, ascending. Nil for a direct Run and for a
	// full-coverage merge.
	FailedShards []int
	// PerRelationProbes breaks HashProbes down by probed relation. This
	// map view is built once at the end of a run from the executor's
	// dense per-relation counters.
	PerRelationProbes map[plan.NodeID]int64
	// Checksum is an order-independent hash over the flat output; equal
	// inputs and queries must yield equal checksums across all six
	// strategies, any join order, and any parallelism.
	Checksum uint64
}

// WeightedCost returns the abstract execution cost of the run under
// the given probe weights (Section 5.4).
func (s Stats) WeightedCost(w cost.Weights) float64 {
	return float64(s.HashProbes) +
		w.Filter*float64(s.FilterProbes+s.SemiJoinProbes) +
		w.Expand*float64(s.ExpandedTuples)
}

// PanicError is a worker panic converted into a failed query. Every
// goroutine the executor starts is a par.For worker, which re-raises a
// panic on the goroutine that fanned out; each unit of work (a relation
// build, a reduction chunk, a phase-2 driver chunk) and both phases on
// the calling goroutine run under a recover boundary. So a panicking
// worker — a hash-table gather morsel included — fails its own query
// with this error instead of killing the process. Sibling queries
// sharing the service are unaffected: phase-1 artifacts are only
// published after a build completes, so a panicked build leaks nothing
// into the cache.
type PanicError struct {
	// Site names the worker-pool boundary that recovered the panic.
	Site string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("worker panic at %s: %v", e.Site, e.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. an
// injected fault) to errors.Is/As.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Run executes the query described by the dataset under opts: its own
// build phase, then the chunk scheduler (scan) as a batch of one.
func Run(ds *storage.Dataset, opts Options) (Stats, error) {
	r, err := prepare(ds, opts)
	if err != nil {
		return Stats{}, err
	}
	if err := r.runPhase1(); err != nil {
		return Stats{}, err
	}
	scan([]*run{r})
	return r.finish()
}

// finish closes the run's exec span and converts its outcome into
// Run's contract: the first recorded failure, else cancellation, else
// the collected stats.
func (r *run) finish() (Stats, error) {
	r.opts.Trace.End(r.execSpan)
	if err := r.failure(); err != nil {
		return Stats{}, fmt.Errorf("exec: query failed: %w", err)
	}
	if r.ctxDone() {
		return Stats{}, fmt.Errorf("exec: query cancelled: %w", r.opts.Ctx.Err())
	}
	return r.collectStats(), nil
}

// prepare validates opts against the dataset, normalizes defaults and
// constructs the run state — everything Run does before the build
// phase. Shared with RunBatch (batch.go), which prepares every member
// of a shared scan through the same path.
func prepare(ds *storage.Dataset, opts Options) (*run, error) {
	if err := ds.Validate(); err != nil {
		return nil, fmt.Errorf("exec: invalid dataset: %w", err)
	}
	if !opts.Order.Valid(ds.Tree) {
		return nil, fmt.Errorf("exec: invalid join order %v", opts.Order)
	}
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = DefaultChunkSize
	}
	if opts.Parallelism <= 0 {
		if opts.Parallelism < 0 {
			opts.Parallelism = runtime.GOMAXPROCS(0)
		} else {
			opts.Parallelism = 1
		}
	}
	if opts.CollectOutput != nil && !opts.FlatOutput {
		return nil, fmt.Errorf("exec: CollectOutput requires FlatOutput")
	}
	for _, res := range opts.Residuals {
		if err := res.Validate(ds); err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
	}
	for _, sel := range opts.Selections {
		if err := sel.Validate(ds); err != nil {
			return nil, fmt.Errorf("exec: %w", err)
		}
	}
	if opts.DriverRows != nil {
		if n := ds.Relation(plan.Root).NumRows(); opts.DriverRows.Len() != n {
			return nil, fmt.Errorf("exec: DriverRows covers %d rows, the driver has %d",
				opts.DriverRows.Len(), n)
		}
	}

	r := &run{ds: ds, opts: opts, residuals: newResidualChecker(ds, opts.Residuals)}
	r.execSpan = opts.Trace.Start("exec", opts.TraceParent)
	r.perRel = make([]int64, ds.Tree.Len())
	r.selMasks = selectionMasks(ds, opts.Selections)
	r.baseMasks = restrictDriver(ds, effectiveMasks(ds, r.selMasks), opts.DriverRows)
	r.driverLive = maskAt(r.baseMasks, plan.Root)
	if opts.Ctx != nil {
		r.done = opts.Ctx.Done()
	}
	return r, nil
}

// runPhase1 executes the build phase — hash tables, filters, semi-join
// reduction per the strategy — under the phase-1 panic boundary, and
// converts failures and cancellation into Run's error contract.
func (r *run) runPhase1() error {
	var badStrategy error
	r.phase1Span = r.opts.Trace.Start("phase1", r.execSpan)
	r.guard("phase1", func() {
		switch r.opts.Strategy.Reduction() {
		case cost.Unreduced:
			r.buildTables()
		case cost.Bitvector:
			r.buildTables()
			r.buildFilters()
		case cost.SemiJoin:
			r.semiJoinPass() // builds reduced tables as it goes
		default:
			badStrategy = fmt.Errorf("exec: unknown strategy %v", r.opts.Strategy)
		}
	})
	r.opts.Trace.End(r.phase1Span)
	if badStrategy != nil {
		return badStrategy
	}
	if err := r.failure(); err != nil {
		return fmt.Errorf("exec: query failed during build phase: %w", err)
	}
	if r.ctxDone() {
		return fmt.Errorf("exec: query cancelled during build phase: %w", r.opts.Ctx.Err())
	}
	return nil
}

// collectStats finalizes the post-run stats tail (cache counters, the
// per-relation probe map, coverage) and returns the run totals.
func (r *run) collectStats() Stats {
	r.stats.CacheHits = r.cacheHits.Load()
	r.stats.CacheMisses = r.cacheMisses.Load()
	r.stats.PerRelationProbes = make(map[plan.NodeID]int64, r.ds.Tree.Len()-1)
	for _, id := range r.ds.Tree.NonRoot() {
		r.stats.PerRelationProbes[id] = r.perRel[id]
	}
	r.stats.Coverage = 1
	return r.stats
}

// run holds the state shared by all workers of one execution. After
// the build phase everything here is read-only (workers accumulate
// into private state and are merged at the end), except stats/perRel,
// which only the build phase and merge touch.
type run struct {
	ds    *storage.Dataset
	opts  Options
	stats Stats

	// tables and filters are dense per-relation state indexed by
	// NodeID; entry 0 (the driver) is always nil.
	tables  []*hashtable.Table
	filters []*bitvector.Filter

	residuals *residualChecker
	// selMasks are the pushed-down selection masks alone, indexed by
	// NodeID (nil entries or a nil slice mean no selection). They decide
	// artifact shape: a relation with no selection builds in the
	// versioned shape and is cacheable, one with a selection builds
	// packed over the effective mask.
	selMasks []*storage.Bitmap
	// baseMasks are the effective masks — selection ∧ snapshot liveness
	// — per relation (nil entries or a nil slice mean all-live). The
	// semi-join pass and the driver scan honor these. Masks are
	// word-packed; see storage.Bitmap. Entries may alias the dataset's
	// live bitmaps and are read-only downstream.
	baseMasks []*storage.Bitmap
	// driverLive restricts the driver scan: the selection mask, further
	// reduced by the semi-join pass for SJ strategies. Nil = all live.
	driverLive *storage.Bitmap

	// layoutPos maps NodeID -> column position in the join-order tuple
	// layout (driver at 0, Order[i] at i+1).
	layoutPos []int
	// canonical maps join-order position -> position in the canonical
	// (ascending NodeID) output tuple layout.
	canonical []int
	// children[id] are id's children in ascending NodeID order: the
	// bitvectors applied when id materializes. (A child is always
	// joined after its parent materializes, so all children are
	// unjoined at that point.)
	children [][]plan.NodeID

	// perRel are the merged per-relation hash-probe counters.
	perRel []int64

	// done is Options.Ctx's done channel (nil = never cancelled),
	// polled by both phases; cacheHits/cacheMisses count artifact-
	// provider outcomes across the concurrent phase-1 builds.
	done                   <-chan struct{}
	cacheHits, cacheMisses atomic.Int64

	// failed flips when any worker records a failure (a recovered
	// panic or an injected fault); cancelled() folds it in so sibling
	// workers of the same query stop promptly. failErr keeps the first
	// recorded failure.
	failed  atomic.Bool
	failMu  sync.Mutex
	failErr error

	// collectMu serializes CollectOutput callbacks across workers.
	collectMu     sync.Mutex
	collectLocked bool

	// execSpan / phase1Span are the enclosing trace spans (no-op ids
	// when Options.Trace is nil). Written before any worker fan-out,
	// read-only after.
	execSpan   telemetry.SpanID
	phase1Span telemetry.SpanID
}

// cancelled reports whether the run should stop working: the context
// is done or a sibling worker recorded a failure. It is the
// cooperative stop poll of both phases: cheap enough to call between
// driver chunks, relation builds and reduction chunks.
func (r *run) cancelled() bool {
	return r.failed.Load() || r.ctxDone()
}

// ctxDone reports whether the run's context (alone) is done.
func (r *run) ctxDone() bool {
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// fail records a worker failure (first error wins) and flips the stop
// flag so every other worker of this query winds down at its next
// poll. Safe for concurrent use.
func (r *run) fail(err error) {
	r.failMu.Lock()
	if r.failErr == nil {
		r.failErr = err
	}
	r.failMu.Unlock()
	r.failed.Store(true)
}

// failure returns the first recorded worker failure, or nil.
func (r *run) failure() error {
	r.failMu.Lock()
	defer r.failMu.Unlock()
	return r.failErr
}

// guard runs fn under the executor's panic boundary: a panic anywhere
// below becomes a recorded *PanicError instead of unwinding into the
// caller. Every unit of work handed to par.For runs inside guard; Run
// additionally guards the two phases on the calling goroutine, which
// also catches what par.For re-raises from below a unit's own guard.
func (r *run) guard(site string, fn func()) {
	defer func() {
		if v := recover(); v != nil {
			r.fail(&PanicError{Site: site, Value: v, Stack: debug.Stack()})
		}
	}()
	fn()
}

// buildStop is the stop hook of every hash-table build the run starts:
// the kernel polls it before a build, between its passes and before
// each gather morsel. The build-morsel failpoint fires here, so an
// injected error fails the query like any worker failure and the kernel
// knows nothing of fault injection.
func (r *run) buildStop() bool {
	if err := faultinject.Fire(faultinject.SiteBuildMorsel); err != nil {
		r.fail(err)
	}
	return r.cancelled()
}

// maskAt returns the liveness mask of id (nil = all live).
func maskAt(masks []*storage.Bitmap, id plan.NodeID) *storage.Bitmap {
	if masks == nil {
		return nil
	}
	return masks[id]
}

// buildTables obtains the hash table of every non-root relation on its
// parent-join key under its base mask (baseTable). Relations build
// independently across the worker pool, and each individual build
// additionally morsel-parallelizes over its share of the pool.
func (r *run) buildTables() {
	t := r.ds.Tree
	r.tables = make([]*hashtable.Table, t.Len())
	per := r.perBuildParallelism()
	r.forEachNonRoot(func(id plan.NodeID) {
		sp := r.opts.Trace.Start("build-relation", r.phase1Span)
		r.opts.Trace.Annotate(sp, "rel", int64(id))
		defer r.opts.Trace.End(sp)
		if err := faultinject.Fire(faultinject.SiteBuildRelation); err != nil {
			r.fail(err)
			return
		}
		r.tables[id] = r.baseTable(id, per, sp)
	})
}

// baseTable returns the table of relation id under its base mask —
// selection ∧ snapshot liveness, nothing query-derived — which is the
// table every strategy probes for a relation it does not reduce: all of
// them for STD/COM/BVP, the childless ones for SJ. It is the one place
// such a table comes from: the artifact provider when it has one
// (annotated on sp), else a build on the given worker share that is
// offered back. Every build is bit-identical to a sequential one, which
// is what lets a provider substitute its table without perturbing a
// single downstream counter. Nil means the build was abandoned by
// cancellation.
func (r *run) baseTable(id plan.NodeID, workers int, sp telemetry.SpanID) *hashtable.Table {
	arts := r.opts.Artifacts
	if arts != nil {
		if tbl := arts.Table(id); tbl != nil {
			r.cacheHits.Add(1)
			r.opts.Trace.Annotate(sp, "cached", 1)
			return tbl
		}
	}
	var tbl *hashtable.Table
	if maskAt(r.selMasks, id) == nil {
		// No selection: build in the versioned shape — packed part over
		// the base region, tombstones, append sub-table — which is
		// exactly what incremental repair maintains and what plan-time
		// measurement builds, so a provided table and a cold build are
		// interchangeable bit for bit. For a fully packed, fully live
		// relation this is the plain packed build.
		tbl = hashtable.BuildVersioned(
			r.ds.Relation(id), r.ds.KeyColumn(id),
			r.ds.BaseRows(id), r.ds.BaseLive(id), r.ds.Live(id), workers, r.buildStop)
	} else {
		// Selection-shaped builds stay packed over the effective
		// (selection ∧ liveness) mask; providers key them by mask
		// fingerprint and version, and never repair them.
		tbl = hashtable.BuildParallelStop(
			r.ds.Relation(id), r.ds.KeyColumn(id), maskAt(r.baseMasks, id), workers, r.buildStop)
	}
	if tbl != nil && arts != nil {
		arts.PutTable(id, tbl)
		r.cacheMisses.Add(1)
	}
	return tbl
}

// buildFilters takes one bitvector per non-root relation over its
// build-side join key: the projection of the relation's hash table
// (bitvector.FromTable), derived on the table's first BVP use and kept
// in it. buildFilters runs after buildTables, so the tables exist.
func (r *run) buildFilters() {
	if r.cancelled() {
		return // buildTables may have left nil tables behind
	}
	r.filters = make([]*bitvector.Filter, r.ds.Tree.Len())
	r.forEachNonRoot(func(id plan.NodeID) {
		sp := r.opts.Trace.Start("build-filter", r.phase1Span)
		r.opts.Trace.Annotate(sp, "rel", int64(id))
		defer r.opts.Trace.End(sp)
		r.filters[id] = bitvector.FromTable(r.tables[id])
	})
}

// perBuildParallelism splits Options.Parallelism between the cross-
// relation fan-out of forEachNonRoot and the morsel parallelism inside
// one build, so a query with fewer relations than workers still uses
// the whole pool during phase 1.
func (r *run) perBuildParallelism() int {
	return max(r.opts.Parallelism/max(r.ds.Tree.Len()-1, 1), 1)
}

// forEachNonRoot runs fn for every non-root relation, in parallel when
// the run is parallel, polling cancellation between relations. fn must
// touch only its own relation's state.
func (r *run) forEachNonRoot(fn func(id plan.NodeID)) {
	ids := r.ds.Tree.NonRoot()
	par.For(r.opts.Parallelism, len(ids), r.cancelled, func(_, i int) {
		r.guard("phase1-build", func() { fn(ids[i]) })
	})
}

// prepareLayout precomputes the layout tables the probe hot path
// indexes instead of consulting maps: join-order column positions, the
// canonical output permutation, and per-node child lists.
func (r *run) prepareLayout() {
	t := r.ds.Tree
	nrel := t.Len()
	r.layoutPos = make([]int, nrel)
	r.canonical = make([]int, nrel)
	// NodeIDs are dense 0..nrel-1 and Order is a permutation of the
	// non-root IDs, so the canonical (ascending NodeID) position of the
	// relation at join-order position i is simply its NodeID.
	r.canonical[0] = int(plan.Root)
	for i, id := range r.opts.Order {
		r.layoutPos[id] = i + 1
		r.canonical[i+1] = int(id)
	}
	r.children = make([][]plan.NodeID, nrel)
	for i := 0; i < nrel; i++ {
		// Children are created in ascending NodeID order by plan.AddChild.
		r.children[i] = t.Children(plan.NodeID(i))
	}
}

// driverRows materializes into dst the driver row indices surviving
// the selection mask, the driver-row restriction and (for SJ
// strategies) the semi-join reduction. Only called with a driver mask;
// the unmasked case chunks directly over [0, n) ranges instead (see
// scan), skipping the O(n) list. The returned slice is shared read-only
// by all workers; chunks are sub-slices of it.
func (r *run) driverRows(dst []int32) []int32 {
	dst = buf.Grow(dst, r.driverLive.Count())[:0]
	r.driverLive.ForEachSet(func(row int) {
		dst = append(dst, int32(row))
	})
	return dst
}

// scan is phase 2 of every execution — the one chunk scheduler. The
// members (built runs over the same snapshot with the same driver row
// set and chunk size; a solo Run is a batch of one) share one pass
// over the driver: each chunk is evaluated for every live member
// before the scan advances. Work distributes over the largest member
// parallelism; a worker slot owns one private worker per member (chunk
// scratch is per-query state), each on a scratch borrowed from the
// process-wide free list (scratch.go), and one driver buffer for
// maskless scans, filled once per chunk and read by every member. With
// a driver mask the surviving rows are materialized once and chunked by
// sub-slicing instead.
//
// Per member and per chunk the probe-chunk failpoint fires, the
// cancellation poll runs and the chunk executes under the member's own
// panic boundary, so a member failing or being cancelled mid-pass
// stops consuming chunks without perturbing the others. Every counter
// is additive over driver chunks and the checksum is an
// order-independent sum, so a member's merged stats are independent of
// batch size, worker count and scheduling. Each member gets its own
// phase2 span with one probe span over the whole chunk loop and one
// merge span over the worker fold — per phase, never per chunk.
func scan(members []*run) {
	defer func() {
		if v := recover(); v != nil {
			err := &PanicError{Site: "phase2", Value: v, Stack: debug.Stack()}
			for _, r := range members {
				r.fail(err)
			}
		}
	}()
	lead := members[0]
	n := lead.ds.Relation(plan.Root).NumRows()
	if lead.driverLive != nil {
		n = lead.driverLive.Count()
	}
	cs := lead.opts.ChunkSize
	nChunks := (n + cs - 1) / cs
	p := 1
	for _, r := range members {
		p = max(p, r.opts.Parallelism)
	}
	p = max(min(p, nChunks), 1)

	slots := make([][]*worker, p)
	for s := range slots {
		slots[s] = make([]*worker, len(members))
	}
	spans := make([]struct{ phase2, probe telemetry.SpanID }, len(members))
	for m, r := range members {
		sp := &spans[m]
		sp.phase2 = r.opts.Trace.Start("phase2", r.execSpan)
		r.prepareLayout()
		r.collectLocked = r.opts.CollectOutput != nil && p > 1
		for s := range slots {
			slots[s][m] = newWorker(r, borrowScratch())
		}
		sp.probe = r.opts.Trace.Start("probe", sp.phase2)
		r.opts.Trace.Annotate(sp.probe, "chunks", int64(nChunks))
		r.opts.Trace.Annotate(sp.probe, "workers", int64(p))
		if len(members) > 1 {
			r.opts.Trace.Annotate(sp.probe, "shared", int64(len(members)))
		}
	}

	// A masked scan's row list lives in the first scratch borrowed.
	var live []int32
	if lead.driverLive != nil {
		sc := slots[0][0].scratch
		sc.rows = lead.driverRows(sc.rows)
		live = sc.rows
	}
	par.For(p, nChunks, func() bool { return allDone(members) }, func(s, i int) {
		lo := i * cs
		hi := min(lo+cs, n)
		rows := live
		if rows == nil {
			sc := slots[s][0].scratch
			sc.rows = buf.Grow(sc.rows, hi-lo)
			rows = sc.rows
			for j := range rows {
				rows[j] = int32(lo + j)
			}
		} else {
			rows = rows[lo:hi]
		}
		for m, r := range members {
			if r.cancelled() {
				continue
			}
			w := slots[s][m]
			r.guard("phase2-worker", func() {
				if err := faultinject.Fire(faultinject.SiteProbeChunk); err != nil {
					r.fail(err)
					return
				}
				w.runChunk(rows)
			})
		}
	})

	for m, r := range members {
		r.opts.Trace.End(spans[m].probe)
		mergeSp := r.opts.Trace.Start("merge", spans[m].phase2)
		for s := range slots {
			r.merge(slots[s][m])
		}
		r.opts.Trace.End(mergeSp)
		r.opts.Trace.End(spans[m].phase2)
	}

	// A member that finished cleanly parks its scratches; a failed,
	// panicked or cancelled member's are dropped with whatever state
	// they stopped in. Parking runs in reverse borrow order, so the next
	// scan of the same shape finds each scratch in the role it grew in.
	for m := len(members) - 1; m >= 0; m-- {
		if members[m].cancelled() {
			continue
		}
		for s := p - 1; s >= 0; s-- {
			slots[s][m].scratch.park()
		}
	}
}

// allDone reports whether every member has failed or been cancelled —
// the scan's early-exit condition.
func allDone(members []*run) bool {
	for _, r := range members {
		if !r.cancelled() {
			return false
		}
	}
	return true
}

// merge folds one worker's private counters into the run totals. All
// counters are additive and the checksum is an order-independent sum,
// so the merged stats are independent of worker count and scheduling.
func (r *run) merge(w *worker) {
	r.stats.HashProbes += w.hashProbes
	r.stats.TagHits += w.tagHits
	r.stats.TagMisses += w.tagMisses
	r.stats.FilterProbes += w.filterProbes
	r.stats.OutputTuples += w.outputTuples
	r.stats.ExpandedTuples += w.expandedTuples
	r.stats.IntermediateTuples += w.intermediateTuples
	r.stats.FactorizedRows += w.factorizedRows
	r.stats.Checksum += w.checksum
	for i, v := range w.perRel {
		r.perRel[i] += v
	}
}

// worker is the run-bound half of a phase-2 worker: its run, its
// private counters and the expansion callbacks. Everything a chunk
// loop grows — probe buffers, tuple buffers, ping-pong STD columns, the
// chain arena, the reusable factor chunk — is the borrowed scratch, so
// in steady state a worker allocates nothing per chunk and a warm
// process next to nothing per run.
type worker struct {
	r *run
	*scratch

	// Private counters, merged into run.stats at the end.
	hashProbes         int64
	tagHits            int64
	tagMisses          int64
	filterProbes       int64
	outputTuples       int64
	expandedTuples     int64
	intermediateTuples int64
	factorizedRows     int64
	checksum           uint64
	perRel             []int64

	// The COM expansion callbacks (built once so per-chunk expansion
	// allocates no closures) and their shared pass counter.
	emitFn          func(rows []int32)
	residualCountFn func(rows []int32)
	emitPassed      int64

	// Workers of one run are allocated back to back and every emitted
	// tuple writes its worker's counters, so without the buffers that
	// used to sit between them two workers' counters share a cache line
	// (measured: adhoc_blowup, two workers, +20 % cpu_ms_per_query). The
	// pad keeps neighbours a line pair apart.
	_ [128]byte
}

func newWorker(r *run, sc *scratch) *worker {
	nrel := r.ds.Tree.Len()
	factorized := r.opts.Strategy.Factorized()
	sc.bind(nrel, factorized)
	w := &worker{r: r, scratch: sc, perRel: make([]int64, nrel)}
	if factorized {
		w.emitFn = func(rows []int32) {
			if w.emitTuple(rows) {
				w.emitPassed++
			}
		}
		w.residualCountFn = func(rows []int32) {
			if w.residualsOKJoinOrder(rows) {
				w.emitPassed++
			}
		}
	}
	return w
}

// runChunk processes one driver chunk under the run's strategy.
func (w *worker) runChunk(driverRows []int32) {
	if w.r.opts.Strategy.Factorized() {
		w.runCOMChunk(driverRows)
	} else {
		w.runSTDChunk(driverRows)
	}
}

// emitTuple records one flat output tuple (rows in join-order layout),
// remapping to the canonical ascending-NodeID layout so checksums and
// collected tuples are independent of the join order. Tuples failing a
// residual predicate are dropped; the return value reports whether the
// tuple was emitted.
func (w *worker) emitTuple(joinOrderRows []int32) bool {
	r := w.r
	tmp := w.tupleBuf[:len(joinOrderRows)]
	for i, p := range r.canonical {
		tmp[p] = joinOrderRows[i]
	}
	if !r.residuals.ok(tmp) {
		return false
	}
	w.checksum += checksumCanonical(tmp)
	if r.opts.CollectOutput != nil {
		out := append([]int32(nil), tmp...) // callers may retain the slice
		if r.collectLocked {
			r.collectMu.Lock()
			r.opts.CollectOutput(out)
			r.collectMu.Unlock()
		} else {
			r.opts.CollectOutput(out)
		}
	}
	return true
}

// residualsOKJoinOrder checks the residual predicates for a tuple in
// join-order layout without emitting it.
func (w *worker) residualsOKJoinOrder(joinOrderRows []int32) bool {
	r := w.r
	if r.residuals == nil {
		return true
	}
	tmp := w.tupleBuf[:len(joinOrderRows)]
	for i, p := range r.canonical {
		tmp[p] = joinOrderRows[i]
	}
	return r.residuals.ok(tmp)
}

// gatherKeys fills the worker key buffer with keyCol[row] for each row.
func (w *worker) gatherKeys(keyCol storage.Column, rows []int32) []int64 {
	w.keys = buf.Grow(w.keys, len(rows))
	keys := w.keys
	for i, row := range rows {
		keys[i] = keyCol[row]
	}
	return keys
}
