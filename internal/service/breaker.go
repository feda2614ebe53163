package service

import (
	"fmt"
	"sync"
	"time"
)

// This file implements the per-dataset load-shedding circuit breaker:
// a sliding window of recent query outcomes feeding the classic closed
// → open → half-open state machine. When a dataset's recent failure
// ratio crosses the threshold with enough samples, the breaker opens and the service fast-rejects that
// dataset's queries (ClassShed, jittered Retry-After hint) instead of
// burning admission slots and workers on an unhealthy workload; after
// a cooldown, a bounded number of half-open probes decide whether to
// close again. Failures here mean the engine or the deadline broke
// (internal errors and timeouts) — shed rejections and client
// cancellations are deliberately not counted, so the breaker cannot
// latch itself open on its own rejections.

// BreakerState is the circuit breaker's state.
type BreakerState string

const (
	// BreakerClosed: traffic flows, outcomes are tracked.
	BreakerClosed BreakerState = "closed"
	// BreakerOpen: traffic is fast-rejected until the cooldown ends.
	BreakerOpen BreakerState = "open"
	// BreakerHalfOpen: a bounded number of probe queries test the
	// water; one failure re-opens, enough successes close.
	BreakerHalfOpen BreakerState = "half-open"
)

// The breaker's tuning, the same for every breaker of every service.
const (
	// breakerWindow is the sliding outcome window, divided into
	// breakerBuckets ring buckets that age out wholesale.
	breakerWindow  = 10 * time.Second
	breakerBuckets = 10
	// breakerMinSamples is the window volume below which the failure
	// ratio is not trusted.
	breakerMinSamples = 10
	// breakerFailureRatio opens the breaker when window
	// failures/samples reaches it.
	breakerFailureRatio = 0.5
	// breakerCooldown is how long the breaker stays open before
	// probing; the Retry-After hint is the remaining cooldown, jittered.
	breakerCooldown = time.Second
	// breakerProbes successful probes close a half-open breaker; while
	// probing, at most this many queries are admitted at once.
	breakerProbes = 2
)

// breakerBucket is one ring slot of outcome counts.
type breakerBucket struct {
	ok, fail int64
}

// breaker is one dataset's circuit breaker. All methods are safe for
// concurrent use; now is injectable for deterministic tests.
type breaker struct {
	off bool // admits everything and records nothing
	now func() time.Time

	mu          sync.Mutex
	state       BreakerState
	buckets     [breakerBuckets]breakerBucket
	bucketIdx   int
	bucketFlip  time.Time // when the current bucket ages out
	openedAt    time.Time
	probeActive int   // half-open probes in flight
	probeOK     int   // half-open successes so far
	opens       int64 // lifetime open transitions
}

func newBreaker(off bool, now func() time.Time) *breaker {
	return &breaker{
		off:        off,
		now:        now,
		state:      BreakerClosed,
		bucketFlip: now().Add(breakerWindow / breakerBuckets),
	}
}

// allow decides whether a query may proceed. nil means yes — the
// caller must then call done exactly once with the outcome. A non-nil
// error is a ClassShed rejection carrying the jittered retry hint.
func (b *breaker) allow() error {
	if b == nil || b.off {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.advance(now)
	switch b.state {
	case BreakerOpen:
		remaining := b.openedAt.Add(breakerCooldown).Sub(now)
		if remaining > 0 {
			return shedErr(fmt.Errorf("circuit breaker open (%v of cooldown remaining)", remaining), jitter(remaining))
		}
		// Cooldown over: start probing.
		b.state = BreakerHalfOpen
		b.probeActive, b.probeOK = 0, 0
		fallthrough
	case BreakerHalfOpen:
		if b.probeActive >= breakerProbes {
			return shedErr(fmt.Errorf("circuit breaker half-open, probe slots busy"), jitter(breakerCooldown/2))
		}
		b.probeActive++
	}
	return nil
}

// done records one allowed query's outcome by failure class ("" for
// success). Timeouts and internal failures count against the window;
// sheds and client cancellations release their half-open probe slot
// without biasing the window either way (counting a shed as a failure
// would latch the breaker open on its own rejections; counting it as
// a success would dilute real failures).
func (b *breaker) done(cls Class) {
	if b == nil || b.off {
		return
	}
	failure := cls == ClassTimeout || cls == ClassInternal
	ignored := cls == ClassShed || cls == ClassCanceled
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	b.advance(now)

	if b.state == BreakerHalfOpen {
		if b.probeActive > 0 {
			b.probeActive--
		}
		if ignored {
			return
		}
		if failure {
			b.open(now)
			return
		}
		b.probeOK++
		if b.probeOK >= breakerProbes {
			// Probes passed: close with a clean window so stale
			// failures cannot immediately re-open.
			b.state = BreakerClosed
			b.buckets = [breakerBuckets]breakerBucket{}
		}
		return
	}
	if ignored {
		return
	}

	bk := &b.buckets[b.bucketIdx]
	if failure {
		bk.fail++
	} else {
		bk.ok++
	}
	if b.state == BreakerClosed && failure {
		okN, failN := b.windowCounts()
		total := okN + failN
		if total >= breakerMinSamples && float64(failN) >= breakerFailureRatio*float64(total) {
			b.open(now)
		}
	}
}

// open transitions to the open state (caller holds mu).
func (b *breaker) open(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.opens++
	b.probeActive, b.probeOK = 0, 0
}

// advance ages out ring buckets that have left the window (caller
// holds mu).
func (b *breaker) advance(now time.Time) {
	const span = breakerWindow / breakerBuckets
	for !now.Before(b.bucketFlip) {
		b.bucketIdx = (b.bucketIdx + 1) % breakerBuckets
		b.buckets[b.bucketIdx] = breakerBucket{}
		b.bucketFlip = b.bucketFlip.Add(span)
		// A long idle gap fast-forwards: once every bucket has been
		// cleared there is no need to keep spinning the ring.
		if b.bucketFlip.Add(breakerWindow).Before(now) {
			b.bucketFlip = now.Add(span)
			b.buckets = [breakerBuckets]breakerBucket{}
			break
		}
	}
}

// windowCounts sums the ring (caller holds mu).
func (b *breaker) windowCounts() (ok, fail int64) {
	for i := range b.buckets {
		ok += b.buckets[i].ok
		fail += b.buckets[i].fail
	}
	return ok, fail
}

// BreakerInfo is one dataset's breaker snapshot for /v1/stats.
type BreakerInfo struct {
	Dataset string       `json:"dataset"`
	State   BreakerState `json:"state"`
	// WindowOK / WindowFailures are the sliding-window outcome counts.
	WindowOK       int64 `json:"windowOk"`
	WindowFailures int64 `json:"windowFailures"`
	// Opens counts lifetime closed→open transitions.
	Opens int64 `json:"opens"`
	// ProbesInFlight / ProbeSuccesses describe half-open probing: how
	// many probe queries hold slots right now and how many have
	// succeeded toward re-closing.
	ProbesInFlight int `json:"probesInFlight,omitempty"`
	ProbeSuccesses int `json:"probeSuccesses,omitempty"`
}

// snapshot reads the breaker state for reporting. Every field —
// including the ring advance that ages out stale buckets and the
// half-open probe counters — is read under the window lock, so a
// snapshot racing allow/done observes one consistent state, never a
// half-advanced ring.
func (b *breaker) snapshot(dataset string) BreakerInfo {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.advance(b.now())
	ok, fail := b.windowCounts()
	return BreakerInfo{
		Dataset:        dataset,
		State:          b.state,
		WindowOK:       ok,
		WindowFailures: fail,
		Opens:          b.opens,
		ProbesInFlight: b.probeActive,
		ProbeSuccesses: b.probeOK,
	}
}
