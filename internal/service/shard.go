package service

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"m2mjoin/internal/core"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/faultinject"
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
// ordinary execution path (Service.execOptions) over the parent
// snapshot with the shard's driver row set: the build-side artifacts
// are the snapshot's own, cached once however many shards probe them.
//
// The gather path is where the robustness lives:
//
//   - every dispatch attempt runs under ShardConfig.AttemptTimeout;
//   - failed attempts are retried by failure class, each retry rotated
//     to the next replica (shardRetryable: timeouts, sheds and internal
//     faults fail over; invalid and client-canceled do not);
//   - a straggling attempt is hedged after ShardConfig.HedgeDelay: a
//     duplicate dispatch races it on the next replica, the first
//     success wins and the loser is canceled (its ClassCanceled
//     outcome is ignored by the breakers, so hedging cannot trip them);
//   - each (shard, target) pair has its own circuit breaker, so one
//     dead replica is fast-rejected per shard while the others serve;
//   - when shards still fail, Request.MinCoverage admits a degraded
//     result: the survivors are merged, Stats.Coverage reports the
//     row-weighted fraction served and Stats.FailedShards names the
//     missing shards. With MinCoverage unset the query fails with the
//     most severe shard error.

// DefaultShardAttemptTimeout bounds one shard dispatch attempt when
// ShardConfig.AttemptTimeout is zero.
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
	// locally, and retries/hedges rotate across them. Every backend
	// must serve the same datasets (verified by content fingerprint
	// before its first shard result is trusted).
	Backends []string
	// AttemptTimeout bounds one shard dispatch attempt (default 2s,
	// negative disables; the query's own deadline still applies).
	AttemptTimeout time.Duration
	// Retries is how many classified retries one shard gets after its
	// first attempt, each rotated to the next replica (default 1,
	// negative disables retries).
	Retries int
	// HedgeDelay, when positive, dispatches a duplicate attempt on the
	// next replica if one is still unanswered after the delay. First
	// success wins; the loser is canceled cooperatively.
	HedgeDelay time.Duration
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
	case cfg.AttemptTimeout == 0:
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
				set.breakers[k][t] = newBreaker(s.cfg.Breaker, s.now)
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

// shardCall carries one shard's dispatch context through retry and
// hedging: the query's execution context plus the partition and the
// shard's index in it.
type shardCall struct {
	execCall
	set *shardSet
	k   int // shard index
}

// shardTarget is one member that can execute a shard probe: the local
// process or a replica backend.
type shardTarget interface {
	// name labels the target in breaker snapshots and errors.
	name() string
	// run executes one shard attempt; errors should carry a Class
	// (Classify maps the rest to ClassInternal).
	run(ctx context.Context, s *Service, c shardCall) (exec.Stats, error)
}

// localTarget executes a shard in-process: the parent snapshot under
// the shard's driver row set, through the same options as a solo query.
type localTarget struct{}

func (localTarget) name() string { return "local" }

func (localTarget) run(ctx context.Context, s *Service, c shardCall) (exec.Stats, error) {
	if err := faultinject.Fire(faultinject.SiteShardProbe); err != nil {
		return exec.Stats{}, &QueryError{Class: ClassInternal, Err: err}
	}
	sh := c.set.shards[c.k]
	st, err := core.Execute(sh.Parent, c.choice, s.execOptions(ctx, c.execCall, sh.Parent, sh.Rows))
	if err != nil {
		return exec.Stats{}, classifyExecError(err)
	}
	return st, nil
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
		// attempt deadline or a hedge cancellation aborts the HTTP call
		// too), anything else means the replica is unreachable.
		qe := classifyExecError(ctx.Err())
		if ctx.Err() == nil {
			qe = &QueryError{Class: ClassInternal, Err: err}
		}
		qe.Err = fmt.Errorf("backend %s: %w", t.runner.Base(), err)
		return exec.Stats{}, qe
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

// queryScatter answers one client query on a sharded service: it fans
// one dispatch per shard out of the query's single admission slot,
// gathers with retry/hedging/breakers per shard, and merges. Runs
// inside Query's admission slot, dataset breaker and deadline.
func (s *Service) queryScatter(ctx context.Context, c execCall, queued time.Duration) (Result, error) {
	set, err := c.e.shardSetFor(s, s.cfg.Shard.Shards)
	if err != nil {
		return Result{}, invalidErr(err)
	}
	req, tr := c.req, c.tr
	n := len(set.shards)
	s.met.scatterQueries.Inc()
	// The scatter span covers dispatch fan-out through the last shard's
	// verdict; each attempt hangs its own shard-dispatch span under it.
	ssp := tr.Start("scatter", c.parent)
	tr.Annotate(ssp, "shards", int64(n))
	defer tr.End(ssp)
	sc := shardCall{execCall: c, set: set}
	sc.workers = max(c.workers/n, 1)
	sc.parent = ssp

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

	start := s.now()
	parts := make([]exec.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sk := sc
			sk.k = k
			parts[k], errs[k] = s.runShard(sctx, sk)
			if errs[k] != nil && scancel != nil {
				scancel()
			}
		}(k)
	}
	wg.Wait()
	elapsed := s.now().Sub(start)

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
	if len(failed) == 0 {
		return s.scatterResult(c, set, elapsed, queued, exec.MergeShardStats(parts)), nil
	}

	coverage := float64(len(survivors)) / float64(n)
	if total := set.snapshot().Relation(plan.Root).NumRows(); total > 0 {
		coverage = float64(coveredRows) / float64(total)
	}
	if req.MinCoverage > 0 && len(survivors) > 0 && coverage >= req.MinCoverage {
		merged := exec.MergeShardStats(survivors)
		merged.Coverage = coverage
		merged.FailedShards = failed
		s.met.degraded.Inc()
		return s.scatterResult(c, set, elapsed, queued, merged), nil
	}

	// Surface the most severe shard failure as the query's verdict.
	worstK := failed[0]
	for _, k := range failed[1:] {
		if classSeverity(Classify(errs[k])) > classSeverity(Classify(errs[worstK])) {
			worstK = k
		}
	}
	worst := errs[worstK]
	return Result{Elapsed: elapsed}, &QueryError{
		Class:      Classify(worst),
		RetryAfter: RetryAfterHint(worst),
		Err: fmt.Errorf("scatter: %d/%d shards failed (coverage %.3f): shard %d: %w",
			len(failed), n, coverage, worstK, worst),
	}
}

// scatterResult assembles the client-facing Result of a (possibly
// degraded) scatter.
func (s *Service) scatterResult(c execCall, set *shardSet, elapsed, queued time.Duration, merged exec.Stats) Result {
	res := s.result(c, set.snapshot().Version(), elapsed, queued, merged)
	res.Shards = len(set.shards)
	res.FailedShards = merged.FailedShards
	return res
}

// runShard drives one shard to a verdict: up to 1+Retries attempts,
// each rotated to the next replica — attempt a for shard k goes to
// target (k+a) mod len(targets), so shards spread over replicas and
// retries walk away from a broken one — with hedged duplicate
// dispatch inside each attempt.
func (s *Service) runShard(ctx context.Context, c shardCall) (exec.Stats, error) {
	maxAttempts := 1 + s.cfg.Shard.Retries
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return exec.Stats{}, lastErr
			}
			return exec.Stats{}, classifyExecError(err)
		}
		primary := (c.k + attempt) % len(s.targets)
		st, err := s.attemptShard(ctx, c, primary)
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

// attemptShard makes one (possibly hedged) dispatch of shard c.k to
// the primary target. When HedgeDelay passes without a verdict, a
// duplicate dispatch races on the next replica; the first success
// cancels the other dispatch cooperatively, and the loser's
// ClassCanceled outcome is ignored by its breaker (see breaker.done),
// so hedging never double-counts work or poisons breaker windows.
func (s *Service) attemptShard(ctx context.Context, c shardCall, primary int) (exec.Stats, error) {
	type outcome struct {
		st    exec.Stats
		err   error
		hedge bool
	}
	// Buffered to the dispatch maximum (primary + one hedge): a loser
	// finishing after we returned must never block on the send.
	ch := make(chan outcome, 2)
	var cmu sync.Mutex
	var cancels []context.CancelFunc
	cancelAll := func() {
		cmu.Lock()
		for _, cancel := range cancels {
			cancel()
		}
		cmu.Unlock()
	}
	defer cancelAll()

	dispatch := func(t int, hedge bool) {
		brk := c.set.breakers[c.k][t]
		if err := brk.allow(); err != nil {
			ch <- outcome{err: err, hedge: hedge}
			return
		}
		var actx context.Context
		var cancel context.CancelFunc
		if s.cfg.Shard.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, s.cfg.Shard.AttemptTimeout)
		} else {
			actx, cancel = context.WithCancel(ctx)
		}
		cmu.Lock()
		cancels = append(cancels, cancel)
		cmu.Unlock()
		go func() {
			started := s.now()
			// One span per dispatch attempt: retries and hedges each get
			// their own, so a trace shows the whole race. Local targets
			// hang their exec spans under it; HTTP targets do not
			// propagate the trace over the wire (the backend's own ring
			// has it).
			sp := c.tr.Start("shard-dispatch", c.parent)
			c.tr.Annotate(sp, "shard", int64(c.k))
			c.tr.Annotate(sp, "target", int64(t))
			if hedge {
				c.tr.Annotate(sp, "hedge", 1)
			}
			var st exec.Stats
			var err error
			defer func() {
				if v := recover(); v != nil {
					err = &QueryError{Class: ClassInternal,
						Err: fmt.Errorf("shard %d dispatch to %s panicked: %v", c.k, s.targets[t].name(), v)}
				}
				d := s.now().Sub(started)
				brk.done(Classify(err), d)
				c.tr.End(sp)
				oc := "ok"
				if err != nil {
					oc = string(Classify(err))
				}
				s.met.observeDispatch(oc, d)
				ch <- outcome{st: st, err: err, hedge: hedge}
			}()
			if ferr := faultinject.Fire(faultinject.SiteShardDispatch); ferr != nil {
				err = &QueryError{Class: ClassInternal, Err: ferr}
				return
			}
			cc := c
			cc.parent = sp
			st, err = s.targets[t].run(actx, s, cc)
		}()
	}

	dispatch(primary, false)
	dispatched, received := 1, 0

	var hedgeC <-chan time.Time
	if s.cfg.Shard.HedgeDelay > 0 {
		timer := time.NewTimer(s.cfg.Shard.HedgeDelay)
		defer timer.Stop()
		hedgeC = timer.C
	}

	var lastErr error
	for received < dispatched {
		select {
		case o := <-ch:
			received++
			if o.err == nil {
				if o.hedge {
					s.met.hedgeWins.Inc()
				}
				if received < dispatched {
					// The duplicate is still in flight: cancel it and count
					// the cooperative cancellation.
					s.met.hedgeCancels.Inc()
					cancelAll()
				}
				return o.st, nil
			}
			// Keep the more meaningful error: a loser's cancellation is
			// collateral, not the attempt's verdict.
			if lastErr == nil || Classify(lastErr) == ClassCanceled {
				lastErr = o.err
			}
		case <-hedgeC:
			hedgeC = nil
			s.met.hedges.Inc()
			dispatch((primary+1)%len(s.targets), true)
			dispatched++
		case <-ctx.Done():
			cancelAll()
			if lastErr != nil {
				return exec.Stats{}, lastErr
			}
			return exec.Stats{}, classifyExecError(ctx.Err())
		}
	}
	return exec.Stats{}, lastErr
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
	// Hedges / HedgeWins / HedgeCancels count duplicate dispatches
	// launched for stragglers, those that won, and losing duplicates
	// canceled after the race was decided.
	Hedges       int64 `json:"hedges"`
	HedgeWins    int64 `json:"hedgeWins"`
	HedgeCancels int64 `json:"hedgeCancels"`
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
		Hedges:         s.met.hedges.Value(),
		HedgeWins:      s.met.hedgeWins.Value(),
		HedgeCancels:   s.met.hedgeCancels.Value(),
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
