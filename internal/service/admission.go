package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"m2mjoin/internal/faultinject"
)

// This file implements the admission controller: a bound on the number
// of queries executing at once, a worker-budget split so the configured
// total Parallelism is divided across the queries in flight, and —
// since the resilience layer — overload protection around the wait
// itself. Queries beyond the concurrency bound no longer block
// unboundedly: the waiting queue has a depth bound (beyond it, the
// query is shed immediately with a retry hint instead of piling up),
// and each waiter carries an admission deadline, so a slot is worth
// waiting for only as long as the caller — or the operator — said it
// was. Queued waiters honor context cancellation, so a disconnected
// client never occupies a queue position, let alone a slot.

// The bounds on the wait for a slot.
const (
	// queuedPerSlot sizes the admission queue: a query arriving with
	// queuedPerSlot*maxConcurrent waiters ahead of it is shed at once.
	queuedPerSlot = 4
	// admitTimeout bounds one query's wait in that queue.
	admitTimeout = 2 * time.Second
)

type admission struct {
	// slots bounds concurrent executions (buffered to maxConcurrent).
	slots chan struct{}
	// total is the worker budget split across admitted queries.
	total int
	// admitTimeout bounds one waiter's time in the queue (the constant;
	// a field so a test can shorten the wait).
	admitTimeout time.Duration

	mu     sync.Mutex
	active int
	queued int
}

func newAdmission(totalWorkers, maxConcurrent int) *admission {
	return &admission{
		slots:        make(chan struct{}, maxConcurrent),
		total:        totalWorkers,
		admitTimeout: admitTimeout,
	}
}

// acquire admits one query, waiting while the service is at its
// concurrency bound. It returns the query's worker grant — an equal
// split of the total budget over the queries active at admission time,
// never below 1 — and a release function that must be called exactly
// once when the query finishes.
//
// The wait is bounded three ways, each with its own failure class:
// ctx cancellation (ClassCanceled), the client or query deadline
// (ClassTimeout), and the admission timeout or a full queue
// (ClassShed, with a jittered Retry-After hint). A shed or timed-out
// waiter leaves the queue immediately — it never holds a slot.
//
// The split adapts at admission boundaries only: a long-running query
// keeps its original grant. That keeps grants deterministic for the
// query's lifetime (results are bit-identical at any worker count, so
// only latency is affected) while still converging to total/max under
// sustained load.
func (a *admission) acquire(ctx context.Context) (workers int, release func(), err error) {
	if err := faultinject.Fire(faultinject.SiteAdmit); err != nil {
		return 0, nil, shedErr(fmt.Errorf("admission fault: %w", err), jitter(10*time.Millisecond))
	}

	// Fast path: a free slot means no queueing at all.
	select {
	case a.slots <- struct{}{}:
	default:
		// Queue, if there is room.
		a.mu.Lock()
		if a.queued >= queuedPerSlot*cap(a.slots) {
			a.mu.Unlock()
			return 0, nil, shedErr(
				fmt.Errorf("admission queue full (%d waiting)", a.queued),
				jitter(20*time.Millisecond))
		}
		a.queued++
		a.mu.Unlock()

		timer := time.NewTimer(a.admitTimeout)
		defer timer.Stop()
		select {
		case a.slots <- struct{}{}:
			a.unqueue()
		case <-timer.C:
			a.unqueue()
			return 0, nil, shedErr(
				fmt.Errorf("admission wait exceeded %v", a.admitTimeout),
				jitter(a.admitTimeout/4))
		case <-ctx.Done():
			a.unqueue()
			cls := ClassCanceled
			if ctx.Err() == context.DeadlineExceeded {
				cls = ClassTimeout
			}
			return 0, nil, &QueryError{Class: cls,
				Err: fmt.Errorf("gave up while queued for admission: %w", ctx.Err())}
		}
	}

	a.mu.Lock()
	a.active++
	workers = a.total / a.active
	if workers < 1 {
		workers = 1
	}
	a.mu.Unlock()
	var once sync.Once
	release = func() {
		once.Do(func() {
			a.mu.Lock()
			a.active--
			a.mu.Unlock()
			<-a.slots
		})
	}
	return workers, release, nil
}

func (a *admission) unqueue() {
	a.mu.Lock()
	a.queued--
	a.mu.Unlock()
}

// activeCount reports the number of queries currently admitted.
func (a *admission) activeCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.active
}

// queuedCount reports the number of queries waiting for admission.
func (a *admission) queuedCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.queued
}
