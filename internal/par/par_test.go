package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestForRunsEveryIndexOnce: every index in [0, n) runs exactly once,
// on a slot below max(p, 1), at every worker count — the sequential
// ones included.
func TestForRunsEveryIndexOnce(t *testing.T) {
	for _, p := range []int{0, 1, 2, 8} {
		for _, n := range []int{0, 1, 7, 1000} {
			t.Run(fmt.Sprintf("p%d/n%d", p, n), func(t *testing.T) {
				runs := make([]atomic.Int32, n)
				var badSlot atomic.Int32
				badSlot.Store(-1)
				For(p, n, nil, func(slot, i int) {
					runs[i].Add(1)
					if slot < 0 || slot >= max(p, 1) {
						badSlot.Store(int32(slot))
					}
				})
				for i := range runs {
					if got := runs[i].Load(); got != 1 {
						t.Fatalf("index %d ran %d times", i, got)
					}
				}
				if s := badSlot.Load(); s != -1 {
					t.Fatalf("slot %d outside [0, %d)", s, max(p, 1))
				}
			})
		}
	}
}

// TestForStopRetiresWorkers: once stop turns true no worker takes
// another index. A worker that polled false just before the flip may
// still run the index it took, so at most one index per worker runs
// past the threshold.
func TestForStopRetiresWorkers(t *testing.T) {
	const n, threshold = 1000, 10
	for _, p := range []int{1, 4} {
		var calls atomic.Int64
		For(p, n, func() bool { return calls.Load() >= threshold }, func(_, _ int) {
			calls.Add(1)
		})
		if got := calls.Load(); got < threshold || got >= threshold+int64(p) {
			t.Errorf("p=%d: %d indices ran, want %d to %d", p, got, threshold, threshold+p-1)
		}
	}
}

// TestForPanicReachesCallerAfterWorkersReturn: a worker's panic value
// is re-raised on the caller, only once every sibling has returned from
// fn, the hand-out of indices stops, and no goroutine outlives the call.
func TestForPanicReachesCallerAfterWorkersReturn(t *testing.T) {
	const n = 1000
	sentinel := fmt.Errorf("worker 5 gives up")
	before := runtime.NumGoroutine()
	var active, ran atomic.Int64
	var recovered any
	var activeAtRecover int64
	func() {
		defer func() {
			activeAtRecover = active.Load()
			recovered = recover()
		}()
		For(8, n, nil, func(_, i int) {
			active.Add(1)
			defer active.Add(-1)
			ran.Add(1)
			if i == 5 {
				panic(sentinel)
			}
			time.Sleep(200 * time.Microsecond)
		})
	}()
	if recovered != sentinel {
		t.Fatalf("caller recovered %v, want the worker's panic value", recovered)
	}
	if activeAtRecover != 0 {
		t.Fatalf("%d workers were still inside fn when the panic reached the caller", activeAtRecover)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("all %d indices ran; the panic did not stop the hand-out", got)
	}
	// A worker goroutine may still be unwinding its last deferred call
	// when For returns; give the scheduler a moment before counting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines outlived For (%d before, %d after)", after-before, before, after)
	}
}
