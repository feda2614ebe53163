// Package par is the engine's one fan-out loop. Every goroutine the
// packages under internal/ start is a worker of For: the executor's
// relation builds, semi-join reduction spans and driver-chunk probe
// workers, plan-time edge measurement's per-edge builds, the hash-table
// build's gather morsels, and both scatter-gather layers' per-shard
// runs.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls fn(slot, i) for every i in [0, n) from min(p, n) workers
// pulling indices off one shared cursor, and returns once every worker
// has stopped. slot names the worker, in [0, max(p, 1)); with one worker
// (p <= 1 or n <= 1) that worker is the calling goroutine. stop (nil =
// never) is polled before each index and retires the polling worker; it
// must be safe for concurrent use.
//
// A panic in a worker — in fn or in stop — stops the hand-out of
// indices: siblings finish the index they hold and retire. Once every
// worker has returned, the first panic value is re-raised on the
// caller, so no goroutine started here can take the process down and
// the caller's own recover boundary sees the panic as if fn had run
// inline. With one worker, fn does run inline and its panic unwinds
// directly.
func For(p, n int, stop func() bool, fn func(slot, i int)) {
	p = min(p, n)
	if p <= 1 {
		// Inline, with no cursor or panic slot to share, so the
		// sequential path allocates nothing of its own.
		for i := 0; i < n && (stop == nil || !stop()); i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var aborted atomic.Bool
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked any
	for slot := 0; slot < p; slot++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					mu.Lock()
					if panicked == nil {
						panicked = v
					}
					mu.Unlock()
					aborted.Store(true)
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || aborted.Load() || (stop != nil && stop()) {
					return
				}
				fn(slot, i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
