package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/par"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/storage"
)

// This file is the serving tier's fault-tolerant scatter-gather path.
// A sharded service hash-partitions each dataset's driver rows
// (internal/shard) and answers every query by dispatching one probe
// task per shard — to itself (local targets) or to replica backends
// over HTTP — then merging the per-shard Stats bit-identically to
// unsharded execution (exec.MergeShardStats). A shard task is the
// ordinary execution path (Service.run) over the parent snapshot with
// the shard's driver row set: the build-side artifacts are the
// snapshot's own, cached once however many shards probe them. That
// includes an SJ query's whole phase 1, its reduced tables and driver
// mask: local shards adopt the snapshot's cached one and reduce
// nothing; a replica backend caches its own.
//
// The gather path is where the robustness lives. One par.For worker per
// shard drives that shard to a verdict, each attempt a synchronous
// call, and the scatter joins them all before it returns — no dispatch
// outlives its query:
//
//   - every dispatch attempt runs under ShardConfig.AttemptTimeout;
//   - failed attempts are retried by failure class, each retry rotated
//     to the next replica (shardRetryable: timeouts, sheds and internal
//     faults fail over; invalid and client-canceled do not);
//   - each (shard, target) pair has its own circuit breaker, so one
//     dead replica is fast-rejected per shard while the others serve;
//   - when shards still fail, Request.MinCoverage admits a degraded
//     result: the survivors are merged, Stats.Coverage reports the
//     row-weighted fraction served and Stats.FailedShards names the
//     missing shards. With MinCoverage unset the query fails with the
//     most severe shard error.

// DefaultShardAttemptTimeout bounds one dispatch attempt to a replica
// backend when ShardConfig.AttemptTimeout is zero.
const DefaultShardAttemptTimeout = 2 * time.Second

// ShardConfig configures the sharded serving tier. The zero value
// leaves the service unsharded.
type ShardConfig struct {
	// Shards is the number of hash partitions of each dataset's driver
	// relation. 0 defaults to 1 (unsharded) — or to len(Backends) when
	// backends are configured.
	Shards int
	// Backends are base URLs of replica m2mserve processes; when set,
	// shard attempts are dispatched over HTTP instead of executing
	// locally, and retries rotate across them. Every backend
	// must serve the same datasets (verified by content fingerprint
	// before its first shard result is trusted).
	Backends []string
	// AttemptTimeout bounds one shard dispatch attempt (default 2s with
	// Backends, none for local shards; negative disables). The query's
	// own deadline always applies.
	AttemptTimeout time.Duration
	// Retries is how many classified retries one shard gets after its
	// first attempt, each rotated to the next replica (default 1,
	// negative disables retries).
	Retries int
}

// normalizeShardConfig applies the documented defaults.
func normalizeShardConfig(cfg ShardConfig) ShardConfig {
	if cfg.Shards <= 0 {
		if len(cfg.Backends) > 0 {
			cfg.Shards = len(cfg.Backends)
		} else {
			cfg.Shards = 1
		}
	}
	if cfg.Shards > shard.MaxShards {
		cfg.Shards = shard.MaxShards
	}
	switch {
	case cfg.AttemptTimeout == 0 && len(cfg.Backends) > 0:
		cfg.AttemptTimeout = DefaultShardAttemptTimeout
	case cfg.AttemptTimeout < 0:
		cfg.AttemptTimeout = 0 // unbounded
	}
	switch {
	case cfg.Retries == 0:
		cfg.Retries = 1
	case cfg.Retries < 0:
		cfg.Retries = 0
	}
	return cfg
}

// sharded reports whether queries take the scatter-gather path.
func (s *Service) sharded() bool {
	return s.cfg.Shard.Shards > 1 || len(s.cfg.Shard.Backends) > 0
}

// newShardTargets builds the replica set: the local process, or one
// HTTP target per configured backend.
func newShardTargets(cfg ShardConfig) []shardTarget {
	if len(cfg.Backends) == 0 {
		return []shardTarget{localTarget{}}
	}
	targets := make([]shardTarget, len(cfg.Backends))
	for i, base := range cfg.Backends {
		targets[i] = newHTTPTarget(base)
	}
	return targets
}

// shardSet is one dataset's partition at a given shard count, built
// lazily and memoized on the entry: the shards (each pointing at the
// snapshot the partition reflects) and one circuit breaker per (shard,
// target) pair. A set is immutable once published — Mutate replaces it
// wholesale with an advanced successor sharing the same breakers, so
// in-flight scatters keep their consistent set pointer.
type shardSet struct {
	shards []shard.Shard
	// breakers[k][t] guards dispatches of shard k to target t.
	breakers [][]*breaker
}

// snapshot returns the snapshot the partition reflects.
func (set *shardSet) snapshot() *storage.Dataset { return set.shards[0].Parent }

// pin returns what shard k executes against: the partition's snapshot
// and the shard's driver row set. A shard-worker request and a local
// shard attempt both resolve their shard here.
func (set *shardSet) pin(k int) (*storage.Dataset, *storage.Bitmap) {
	return set.shards[k].Parent, set.shards[k].Rows
}

// shardSetFor returns the entry's memoized partition at n shards for
// the current head snapshot, building it on first use and rebuilding it
// if a commit superseded it before Mutate's lockstep advance could
// (the rare rebuild produces the identical partition — Advance is
// mask-for-mask Partition — and inherits the superseded set's breakers).
func (e *datasetEntry) shardSetFor(s *Service, n int) (*shardSet, error) {
	e.shardMu.Lock()
	defer e.shardMu.Unlock()
	head := e.head.Load()
	old := e.shardSets[n]
	if old != nil && old.snapshot() == head {
		return old, nil
	}
	shards, err := shard.Partition(head, n)
	if err != nil {
		return nil, err
	}
	set := &shardSet{shards: shards}
	if old != nil {
		set.breakers = old.breakers
	} else {
		set.breakers = make([][]*breaker, n)
		for k := range set.breakers {
			set.breakers[k] = make([]*breaker, len(s.targets))
			for t := range s.targets {
				set.breakers[k][t] = newBreaker(s.breakerOff, s.now)
			}
		}
	}
	if e.shardSets == nil {
		e.shardSets = make(map[int]*shardSet)
	}
	e.shardSets[n] = set
	return set, nil
}

// advanceShardSetsLocked advances every memoized partition to the
// freshly committed version v through shard.Advance — copy-on-write,
// so scatters holding the previous set keep serving their snapshot.
// Sets that are not on v's predecessor (a racing rebuild, or one that
// fell behind) are dropped and rebuilt on next use. Caller holds
// shardMu (and verMu, which serializes advances).
func (e *datasetEntry) advanceShardSetsLocked(prev *storage.Dataset, v storage.Version) {
	for n, set := range e.shardSets {
		if set.snapshot() != prev {
			delete(e.shardSets, n)
			continue
		}
		shards, err := shard.Advance(set.shards, v.Dataset, v)
		if err != nil {
			delete(e.shardSets, n)
			continue
		}
		e.shardSets[n] = &shardSet{shards: shards, breakers: set.breakers}
	}
}

// shardCall carries one shard's dispatch context through its attempts:
// the query's execution context plus the partition and the shard's
// index in it.
type shardCall struct {
	execCall
	set *shardSet
	k   int // shard index
	// build is the SJ build side the local shards share, taken from the
	// cache or reduced once by the scatter (nil for other strategies and
	// for replica backends, which take their own).
	build *exec.BuildSide
}

// shardTarget is one member that can execute a shard probe: the local
// process or a replica backend.
type shardTarget interface {
	// name labels the target in breaker snapshots and errors.
	name() string
	// run executes one shard attempt; Classify gives its error a class
	// (a *QueryError's own, a context's, else ClassInternal).
	run(ctx context.Context, s *Service, c shardCall) (exec.Stats, error)
}

// localTarget executes a shard in-process: the parent snapshot under
// the shard's driver row set, through the same call as a solo query.
type localTarget struct{}

func (localTarget) name() string { return "local" }

func (localTarget) run(ctx context.Context, s *Service, c shardCall) (exec.Stats, error) {
	snap, rows := c.set.pin(c.k)
	return s.run(ctx, c.execCall, snap, rows, c.build)
}

// httpTarget dispatches shard attempts to a replica backend as
// shard-worker requests (Request.ShardCount/ShardIndex), pinning the
// frontend's plan choice so every replica executes the same strategy.
// Before trusting the first result per dataset it verifies the backend
// serves the same content, by fingerprint; the verdict is memoized.
type httpTarget struct {
	runner *HTTPRunner

	mu       sync.Mutex
	verified map[string]error // dataset name -> nil (match) or mismatch
}

func newHTTPTarget(base string) *httpTarget {
	return &httpTarget{
		runner:   NewHTTPRunner(base),
		verified: make(map[string]error),
	}
}

func (t *httpTarget) name() string { return t.runner.Base() }

func (t *httpTarget) run(ctx context.Context, s *Service, c shardCall) (exec.Stats, error) {
	if err := t.verify(ctx, c.e); err != nil {
		return exec.Stats{}, &QueryError{Class: ClassInternal,
			Err: fmt.Errorf("backend %s: %w", t.runner.Base(), err)}
	}
	req := Request{
		Dataset:     c.req.Dataset,
		Strategy:    c.choice.Strategy.String(),
		FlatOutput:  c.req.FlatOutput,
		Parallelism: c.workers,
		ChunkSize:   c.req.ChunkSize,
		Selections:  c.req.Selections,
		ShardCount:  len(c.set.shards),
		ShardIndex:  c.k,
	}
	// Ship the remaining attempt budget so the backend sheds or times
	// out on its own rather than serving an answer nobody is waiting on.
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.TimeoutMillis = ms
	}
	res, err := t.runner.Query(ctx, req)
	if err != nil {
		if IsQueryError(err) {
			return exec.Stats{}, err
		}
		// Transport failure: classify by our own context first (the
		// attempt deadline or a sibling's failure aborts the HTTP call
		// too), anything else means the replica is unreachable.
		cls := ClassInternal
		if cerr := ctx.Err(); cerr != nil {
			cls = Classify(cerr)
		}
		return exec.Stats{}, &QueryError{Class: cls,
			Err: fmt.Errorf("backend %s: %w", t.runner.Base(), err)}
	}
	return res.Stats, nil
}

// verify checks (once per dataset) that the backend serves a dataset
// of the same name with the same content fingerprint. Transport
// failures are not memoized — the backend may simply be down and come
// back; a fingerprint mismatch is, since content will not fix itself.
func (t *httpTarget) verify(ctx context.Context, e *datasetEntry) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if verdict, ok := t.verified[e.name]; ok {
		return verdict
	}
	infos, err := t.runner.Datasets(ctx)
	if err != nil {
		return fmt.Errorf("catalog fetch: %w", err)
	}
	verdict := fmt.Errorf("does not serve dataset %q", e.name)
	for _, info := range infos {
		if info.Name != e.name {
			continue
		}
		if info.Fingerprint == e.fp {
			verdict = nil
		} else {
			verdict = fmt.Errorf("dataset %q fingerprint mismatch: backend %#x, local %#x",
				e.name, info.Fingerprint, e.fp)
		}
		break
	}
	t.verified[e.name] = verdict
	return verdict
}

// IsQueryError reports whether err carries a *QueryError anywhere in
// its chain (i.e. already has a failure class).
func IsQueryError(err error) bool {
	var qe *QueryError
	return errors.As(err, &qe)
}

// shardRetryable decides whether a failed shard attempt is worth
// another replica. Timeouts and sheds are transient by definition;
// internal failures fail over too — unlike the client-side Retryable,
// which has nowhere else to go, the gather path's whole purpose is
// routing around a broken member. Invalid requests are deterministic
// and client cancellations mean nobody is waiting.
func shardRetryable(c Class) bool {
	return c == ClassShed || c == ClassTimeout || c == ClassInternal
}

// classSeverity ranks failure classes for picking the representative
// error of a failed scatter: config problems first (they will never
// heal), then hard faults, then transient overload.
func classSeverity(c Class) int {
	switch c {
	case ClassInvalid:
		return 5
	case ClassInternal:
		return 4
	case ClassTimeout:
		return 3
	case ClassShed:
		return 2
	case ClassCanceled:
		return 1
	}
	return 0
}

// scatter is the execute stage of a client query on a sharded service:
// it fans one dispatch per shard of the pinned partition out of the
// query's single admission slot, gathers with retry and breakers per
// shard, and merges. Runs inside Query's admission slot, dataset
// breaker and deadline, and returns only once every shard has. For
// local shards of an SJ plan it first takes the snapshot's build side,
// the whole phase 1 every shard adopts (Service.buildSide: cached, or
// reduced once with the query's whole worker grant); a failed
// reduction fails the query as a solo query's build-phase failure does.
func (s *Service) scatter(ctx context.Context, c execCall, set *shardSet) (outcome, error) {
	req, tr := c.req, c.tr
	n := len(set.shards)
	out := outcome{shards: n}
	s.met.scatterQueries.Inc()
	// The scatter span covers the build side and dispatch fan-out
	// through the last shard's verdict; each attempt hangs its own
	// shard-dispatch span under it.
	ssp := tr.Start("scatter", c.parent)
	tr.Annotate(ssp, "shards", int64(n))
	defer tr.End(ssp)
	sc := shardCall{execCall: c, set: set}
	sc.parent = ssp
	var side exec.Stats
	if len(s.cfg.Shard.Backends) == 0 && c.choice.Strategy.Reduction() == cost.SemiJoin {
		snap := set.snapshot()
		var err error
		if sc.build, side, err = s.buildSide(snap, c.choice, s.execOptions(ctx, sc.execCall, snap, nil)); err != nil {
			return out, fmt.Errorf("scatter: %w", err)
		}
	}
	sc.workers = max(c.workers/n, 1)

	// Without a degraded-coverage budget any shard failure dooms the
	// query, so the first definitive failure cancels the siblings; with
	// MinCoverage set, every shard runs to its own verdict because the
	// survivors are the product.
	sctx := ctx
	var scancel context.CancelFunc
	if req.MinCoverage <= 0 {
		sctx, scancel = context.WithCancel(ctx)
		defer scancel()
	}

	parts := make([]exec.Stats, n)
	errs := make([]error, n)
	par.For(n, n, nil, func(_, k int) {
		sk := sc
		sk.k = k
		parts[k], errs[k] = s.runShard(sctx, sk)
		if errs[k] != nil && scancel != nil {
			scancel()
		}
	})

	var failed []int
	survivors := parts[:0:0]
	coveredRows := 0
	for k := range errs {
		if errs[k] != nil {
			failed = append(failed, k)
			continue
		}
		survivors = append(survivors, parts[k])
		coveredRows += set.shards[k].DriverRows()
	}
	// The shards' own cache lookups are in their Stats; a shared build
	// side's are added once.
	merge := func(parts []exec.Stats) exec.Stats {
		m := exec.MergeShardStats(parts)
		if sc.build != nil {
			addBuildSide(&m, side)
		}
		return m
	}
	if len(failed) == 0 {
		out.stats = merge(parts)
		return out, nil
	}

	coverage := float64(len(survivors)) / float64(n)
	if total := set.snapshot().Relation(plan.Root).NumRows(); total > 0 {
		coverage = float64(coveredRows) / float64(total)
	}
	if req.MinCoverage > 0 && len(survivors) > 0 && coverage >= req.MinCoverage {
		out.stats = merge(survivors)
		out.stats.Coverage = coverage
		out.stats.FailedShards = failed
		s.met.degraded.Inc()
		return out, nil
	}

	// Surface the most severe shard failure as the query's verdict.
	worstK := failed[0]
	for _, k := range failed[1:] {
		if classSeverity(Classify(errs[k])) > classSeverity(Classify(errs[worstK])) {
			worstK = k
		}
	}
	worst := errs[worstK]
	return out, &QueryError{
		Class:      Classify(worst),
		RetryAfter: RetryAfterHint(worst),
		Err: fmt.Errorf("scatter: %d/%d shards failed (coverage %.3f): shard %d: %w",
			len(failed), n, coverage, worstK, worst),
	}
}

// runShard drives one shard to a verdict: up to 1+Retries attempts,
// each rotated to the next replica — attempt a for shard k goes to
// target (k+a) mod len(targets), so shards spread over replicas and
// retries walk away from a broken one.
func (s *Service) runShard(ctx context.Context, c shardCall) (exec.Stats, error) {
	maxAttempts := 1 + s.cfg.Shard.Retries
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return exec.Stats{}, lastErr
			}
			return exec.Stats{}, err
		}
		st, err := s.attemptShard(ctx, c, (c.k+attempt)%len(s.targets))
		if err == nil {
			return st, nil
		}
		lastErr = err
		if !shardRetryable(Classify(err)) {
			return exec.Stats{}, err
		}
		if attempt+1 < maxAttempts {
			s.met.shardRetries.Inc()
		}
	}
	return exec.Stats{}, lastErr
}

// attemptShard makes one dispatch of shard c.k to target t, as a
// synchronous call on the shard's goroutine: the (shard, target)
// breaker decides, the attempt deadline is armed, and the target runs
// under one shard-dispatch span — retries each get their own. Local
// targets hang their exec spans under it; HTTP targets do not
// propagate the trace over the wire (the backend's own ring has it).
// The breaker and the dispatch histogram get the attempt's outcome,
// a panic in the target included, before the call returns.
func (s *Service) attemptShard(ctx context.Context, c shardCall, t int) (st exec.Stats, err error) {
	brk := c.set.breakers[c.k][t]
	if err := brk.allow(); err != nil {
		return exec.Stats{}, err
	}
	if d := s.cfg.Shard.AttemptTimeout; d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	started := s.now()
	sp := c.tr.Start("shard-dispatch", c.parent)
	c.tr.Annotate(sp, "shard", int64(c.k))
	c.tr.Annotate(sp, "target", int64(t))
	defer func() {
		if v := recover(); v != nil {
			err = &QueryError{Class: ClassInternal,
				Err: fmt.Errorf("shard %d dispatch to %s panicked: %v", c.k, s.targets[t].name(), v)}
		}
		cls := Classify(err)
		brk.done(cls)
		c.tr.End(sp)
		s.met.observeDispatch(cls, s.now().Sub(started))
	}()
	if err := faultinject.Fire(faultinject.SiteShardDispatch); err != nil {
		return exec.Stats{}, err
	}
	c.parent = sp
	return s.targets[t].run(ctx, s, c)
}

// ShardingStats is the sharded tier's Stats section.
type ShardingStats struct {
	// Shards and Backends echo the configuration.
	Shards   int      `json:"shards"`
	Backends []string `json:"backends,omitempty"`
	// ScatterQueries counts queries answered via scatter-gather.
	ScatterQueries int64 `json:"scatterQueries"`
	// Degraded counts scatter queries answered with Coverage < 1.
	Degraded int64 `json:"degraded"`
	// Retries counts shard attempts re-dispatched after a classified
	// retryable failure.
	Retries int64 `json:"retries"`
	// ShardBreakers snapshots every (shard, target) breaker that has
	// seen traffic or left the closed state, labeled
	// "<dataset>/shard<k>@<target>".
	ShardBreakers []BreakerInfo `json:"shardBreakers,omitempty"`
}

// shardingStats snapshots the sharded tier (nil when unsharded).
func (s *Service) shardingStats() *ShardingStats {
	if !s.sharded() {
		return nil
	}
	ss := &ShardingStats{
		Shards:         s.cfg.Shard.Shards,
		Backends:       append([]string(nil), s.cfg.Shard.Backends...),
		ScatterQueries: s.met.scatterQueries.Value(),
		Degraded:       s.met.degraded.Value(),
		Retries:        s.met.shardRetries.Value(),
	}
	s.mu.RLock()
	entries := make([]*datasetEntry, 0, len(s.datasets))
	for _, e := range s.datasets {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	for _, e := range entries {
		e.shardMu.Lock()
		for _, set := range e.shardSets {
			for k, row := range set.breakers {
				for t, b := range row {
					info := b.snapshot(fmt.Sprintf("%s/shard%d@%s", e.name, k, s.targets[t].name()))
					if info.State != BreakerClosed || info.WindowOK+info.WindowFailures > 0 || info.Opens > 0 {
						ss.ShardBreakers = append(ss.ShardBreakers, info)
					}
				}
			}
		}
		e.shardMu.Unlock()
	}
	sort.Slice(ss.ShardBreakers, func(i, j int) bool {
		return ss.ShardBreakers[i].Dataset < ss.ShardBreakers[j].Dataset
	})
	return ss
}
