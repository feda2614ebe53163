package exec

import (
	"fmt"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/storage"
)

// This file is the shared-scan batch entry point: several queries
// against the same dataset snapshot execute as ONE driver pass through
// the chunk scheduler every execution uses (scan, exec.go), which
// evaluates every attached query's probe set per chunk instead of each
// query rescanning the driver alone. Each member keeps its own
// phase 1 (its strategy may differ, its artifacts come from its own
// provider), its own workers, counters and checksum, its own fault
// injection and its own cancellation: because every counter is
// additive over driver chunks and the checksum is an order-independent
// sum — the same invariants that make parallelism bit-identical — a
// member's Stats are bit-identical to running it solo. What members
// must share is the scan geometry: the same driver row set (no
// differing root-relation selections or driver-row restrictions) and
// the same chunk size, so chunk i means the same rows for everyone.
//
// SJ strategies are rejected: their phase 1 reduces the driver mask
// per query, so no common driver scan exists (the serving layer
// routes them solo for the same reason).

// ErrBatchIncompatible wraps per-member shared-scan eligibility
// failures so callers can route the member to a solo run.
var ErrBatchIncompatible = fmt.Errorf("exec: query incompatible with shared scan")

// RunBatch executes the queries described by optsList against ds as a
// shared driver scan, returning one Stats and one error slot per
// member (exactly what Run would have returned for it, bit for bit —
// solo-vs-shared parity is pinned by batch_test.go). Members that fail
// validation, eligibility or their own build phase get their error
// recorded and drop out; the surviving members still share the scan. A
// member failing or being cancelled mid-pass stops consuming chunks at
// its next poll without perturbing the others.
func RunBatch(ds *storage.Dataset, optsList []Options) ([]Stats, []error) {
	stats := make([]Stats, len(optsList))
	errs := make([]error, len(optsList))
	members := make([]*run, 0, len(optsList))
	slots := make([]int, 0, len(optsList))
	for i, opts := range optsList {
		r, err := prepareBatchMember(ds, opts, members)
		if err != nil {
			errs[i] = err
			continue
		}
		members = append(members, r)
		slots = append(slots, i)
	}
	if len(members) == 0 {
		return stats, errs
	}

	scan(members)

	for j, r := range members {
		stats[slots[j]], errs[slots[j]] = r.finish()
	}
	return stats, errs
}

// prepareBatchMember runs one member through prepare and its own build
// phase, then checks it can share a scan with the already-admitted
// members: non-SJ strategy, the common chunk size, and the same driver
// row set.
func prepareBatchMember(ds *storage.Dataset, opts Options, admitted []*run) (*run, error) {
	if opts.Strategy.Reduction() == cost.SemiJoin {
		return nil, fmt.Errorf("%w: semi-join strategies reduce the driver per query", ErrBatchIncompatible)
	}
	r, err := prepare(ds, opts)
	if err != nil {
		return nil, err
	}
	if len(admitted) > 0 {
		lead := admitted[0]
		if r.opts.ChunkSize != lead.opts.ChunkSize {
			return nil, fmt.Errorf("%w: chunk size %d differs from the batch's %d",
				ErrBatchIncompatible, r.opts.ChunkSize, lead.opts.ChunkSize)
		}
		if !sameDriverMask(r.driverLive, lead.driverLive) {
			return nil, fmt.Errorf("%w: driver row set differs from the batch's", ErrBatchIncompatible)
		}
	}
	if err := r.runPhase1(); err != nil {
		return nil, err
	}
	return r, nil
}

// sameDriverMask reports whether two driver masks select the same
// rows (nil = all rows live).
func sameDriverMask(a, b *storage.Bitmap) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Len() != b.Len() {
		return false
	}
	aw, bw := a.Words(), b.Words()
	for i, w := range aw {
		if w != bw[i] {
			return false
		}
	}
	return true
}
