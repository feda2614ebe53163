package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"m2mjoin/internal/core"
	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// Shared-scan batching: compatible warm queries that arrive within a
// short attach window execute as ONE driver pass (core.ExecuteBatch)
// instead of each rescanning the driver alone. The first eligible
// query for a scan key becomes the group leader: it waits the attach
// window, seals the group, runs the batch on its own goroutine and
// hands each member its slot of the results. Followers park on the
// group's done channel — they keep their own admission slot, their own
// context (cancelling one member mid-pass leaves the others untouched)
// and their own artifact-cache view, and their Stats/checksum are
// bit-identical to a solo run (pinned by exec's batch tests and
// sharedscan_test.go).
//
// The scan key pins everything two queries must agree on to share a
// driver pass: the dataset entry, the snapshot (by version AND lineage
// fingerprint, so a commit landing between two pins splits the group),
// and the effective chunk size (chunk i must mean the same rows for
// every member). Strategy, order, parallelism, non-root selections and
// output shape may all differ per member. Queries that reduce or remap
// the driver — SJ strategies, root-relation selections, shard workers,
// degraded-coverage requests — are never eligible and run solo.

// SharedScanConfig tunes shared-scan batching (disabled by default).
type SharedScanConfig struct {
	// Enabled turns shared-scan batching on.
	Enabled bool
	// AttachWindow is how long a group leader holds the scan open for
	// co-arriving queries before executing (default 1ms; negative
	// executes immediately, batching only what arrived while a prior
	// batch was forming).
	AttachWindow time.Duration
	// MaxBatch caps the members of one shared scan; a full group seals
	// early (default 8).
	MaxBatch int
}

// DefaultAttachWindow is the shared-scan attach window when
// SharedScanConfig.AttachWindow is zero.
const DefaultAttachWindow = time.Millisecond

// DefaultMaxBatch is the shared-scan batch cap when
// SharedScanConfig.MaxBatch is zero.
const DefaultMaxBatch = 8

func normalizeSharedScan(cfg SharedScanConfig) SharedScanConfig {
	if cfg.AttachWindow == 0 {
		cfg.AttachWindow = DefaultAttachWindow
	} else if cfg.AttachWindow < 0 {
		cfg.AttachWindow = 0
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	return cfg
}

// scanKey identifies queries that may share one driver pass.
type scanKey struct {
	dataset string
	version uint64
	fp      uint64
	chunk   int
}

// scanMember is one query's seat in a group: its plan and executor
// options plus its arrival time (for the queue-to-attach latency in
// Result).
type scanMember struct {
	choice  core.PlanChoice
	opts    core.ExecuteOptions
	arrived time.Time
}

// scanGroup is one forming or executing shared scan. members/sealed
// are guarded by the board mutex; the result fields are written by the
// leader before done is closed and read-only afterwards.
type scanGroup struct {
	key  scanKey
	snap *storage.Dataset

	members []scanMember
	sealed  bool
	// full is closed when MaxBatch seals the group early, releasing the
	// leader from the rest of its attach window.
	full chan struct{}

	// done is closed by the leader once stats/errs/started are final.
	done    chan struct{}
	stats   []exec.Stats
	errs    []error
	started time.Time
}

// scanBoard tracks the open (still-attachable) group per scan key.
type scanBoard struct {
	mu     sync.Mutex
	groups map[scanKey]*scanGroup
}

func newScanBoard() *scanBoard {
	return &scanBoard{groups: make(map[scanKey]*scanGroup)}
}

// attach joins the open group for key, creating one (and making the
// caller its leader) if none is open. Returns the group, the caller's
// member slot, and whether the caller leads.
func (b *scanBoard) attach(key scanKey, snap *storage.Dataset, m scanMember, maxBatch int) (*scanGroup, int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if g := b.groups[key]; g != nil && !g.sealed {
		g.members = append(g.members, m)
		slot := len(g.members) - 1
		if len(g.members) >= maxBatch {
			g.sealed = true
			delete(b.groups, key)
			close(g.full)
		}
		return g, slot, false
	}
	g := &scanGroup{
		key:     key,
		snap:    snap,
		members: []scanMember{m},
		full:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	b.groups[key] = g
	return g, 0, true
}

// seal closes the group to further attachment (no-op if MaxBatch
// already sealed it) and returns the final member list.
func (b *scanBoard) seal(g *scanGroup) []scanMember {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !g.sealed {
		g.sealed = true
		if b.groups[g.key] == g {
			delete(b.groups, g.key)
		}
	}
	return g.members
}

// sharedScanEligible reports whether this request may attach to a
// shared driver scan: the batching is on, the service and request are
// unsharded and full-coverage, the plan keeps the driver intact (non-
// SJ) and no selection touches the driver relation (a root predicate
// changes the shared row set; members with equal predicates could
// share, but the serving layer keeps eligibility conservative and
// routes them solo).
func (s *Service) sharedScanEligible(req Request, choice core.PlanChoice, sels []exec.Selection) bool {
	if !s.cfg.SharedScan.Enabled || s.sharded() || req.ShardCount != 0 || req.MinCoverage != 0 {
		return false
	}
	if choice.Strategy.Reduction() == cost.SemiJoin {
		return false
	}
	for _, sel := range sels {
		if sel.Rel == plan.Root {
			return false
		}
	}
	return true
}

// sharedScan is the execute stage of an eligible query: attach to the
// open group for its scan key (or lead a new one) and take this
// member's slot of the shared pass. Eligibility excludes shard workers,
// so the driver is all of snap. A member the executor nevertheless
// rejects as incompatible (defense in depth — the scan key should
// prevent it) runs solo.
func (s *Service) sharedScan(ctx context.Context, c execCall, snap *storage.Dataset) (outcome, error) {
	opts := s.execOptions(ctx, c, snap, nil)
	// The key carries the effective chunk size: chunk i must mean the
	// same rows for every member.
	if opts.ChunkSize <= 0 {
		opts.ChunkSize = exec.DefaultChunkSize
	}
	key := scanKey{dataset: c.e.name, version: snap.Version(), fp: snap.VersionFingerprint(), chunk: opts.ChunkSize}
	g, slot, leader := s.scans.attach(key, snap,
		scanMember{choice: c.choice, opts: opts, arrived: s.now()}, s.cfg.SharedScan.MaxBatch)
	if leader {
		s.runScanGroup(g)
	} else {
		// Park until the leader finishes the pass. The member's own
		// context still governs its execution — a cancelled member stops
		// consuming chunks at its next poll and gets its cancellation
		// error here — so waiting on done alone cannot hang longer than
		// the scan itself.
		<-g.done
	}
	if g.errs == nil {
		return outcome{}, fmt.Errorf("shared scan aborted before producing results")
	}
	err := g.errs[slot]
	if errors.Is(err, exec.ErrBatchIncompatible) {
		st, err := s.run(ctx, c, snap, nil)
		return outcome{stats: st}, err
	}
	s.met.sharedMembers.Inc()
	out := outcome{batch: len(g.members), attachWait: g.started.Sub(g.members[slot].arrived)}
	// Retroactive attach-wait span: the gap between reaching the scan
	// board and the shared pass starting. The exec spans under the same
	// parent were recorded by RunBatch on the member's own trace.
	c.tr.AddSpan("attach-wait", c.parent, g.members[slot].arrived, g.started)
	s.met.attachWait.Observe(out.attachWait)
	if err == nil {
		out.stats = g.stats[slot]
	}
	return out, err
}

// runScanGroup is the leader's half: hold the attach window open (a
// full group releases it early), seal, execute the batch, publish the
// results and wake the followers. Runs on the leader query's own
// goroutine; its admission slot is the one the pass executes under,
// with each follower's slot held parked at the barrier.
func (s *Service) runScanGroup(g *scanGroup) {
	if w := s.cfg.SharedScan.AttachWindow; w > 0 {
		timer := time.NewTimer(w)
		select {
		case <-timer.C:
		case <-g.full:
			timer.Stop()
		}
	}
	members := s.scans.seal(g)
	defer close(g.done)
	choices := make([]core.PlanChoice, len(members))
	optsList := make([]core.ExecuteOptions, len(members))
	for i, m := range members {
		choices[i], optsList[i] = m.choice, m.opts
	}
	g.started = s.now()
	g.stats, g.errs = core.ExecuteBatch(g.snap, choices, optsList)
	s.met.sharedScans.Inc()
}
