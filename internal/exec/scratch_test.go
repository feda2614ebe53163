package exec

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/faultinject"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/shard"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// swapFreeList installs list as the process-wide free list and returns
// the one it replaced, so a test can run on an empty list and put the
// inherited one back.
func swapFreeList(list []*scratch) []*scratch {
	free.Lock()
	defer free.Unlock()
	old := free.list
	free.list = list
	return old
}

func parkedCount() int {
	free.Lock()
	defer free.Unlock()
	return len(free.list)
}

// randomOrder draws a valid join order: any relation whose parent is
// already joined may come next.
func randomOrder(tr *plan.Tree, rng *rand.Rand) plan.Order {
	joined := map[plan.NodeID]bool{plan.Root: true}
	var order plan.Order
	for len(order) < tr.Len()-1 {
		var ready []plan.NodeID
		for _, id := range tr.NonRoot() {
			if !joined[id] && joined[tr.Parent(id)] {
				ready = append(ready, id)
			}
		}
		next := ready[rng.Intn(len(ready))]
		joined[next] = true
		order = append(order, next)
	}
	return order
}

// failRun runs the query, over many small chunks, so that it fails
// mid-scan — an injected probe-chunk error, an injected panic, or a
// context cancelled from inside the first chunk's output — and checks
// that it failed that way and parked nothing.
func failRun(ds *storage.Dataset, opts Options, kind int) error {
	opts.ChunkSize = 64
	opts.Selections = nil
	before := parkedCount()
	var err error
	var want func(error) bool
	switch kind {
	case 0, 1:
		mode := faultinject.ModeError
		want = func(err error) bool { return faultinject.IsInjected(err) }
		if kind == 1 {
			mode = faultinject.ModePanic
			want = func(err error) bool { var pe *PanicError; return errors.As(err, &pe) }
		}
		faultinject.Enable(faultinject.Spec{Site: faultinject.SiteProbeChunk, Mode: mode, Every: 2})
		_, err = Run(ds, opts)
		faultinject.Disable()
	default:
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts.Ctx = ctx
		opts.FlatOutput = true
		opts.CollectOutput = func([]int32) { cancel() }
		want = func(err error) bool { return errors.Is(err, context.Canceled) }
		_, err = Run(ds, opts)
	}
	if err == nil || !want(err) {
		return fmt.Errorf("failing run (kind %d) returned %v", kind, err)
	}
	if after := parkedCount(); after > before || before > 0 && after == before {
		return fmt.Errorf("failing run (kind %d) parked a scratch: %d parked before, %d after", kind, before, after)
	}
	return nil
}

// TestScratchReuseDifferential: reuse is invisible. One goroutine runs
// 240 drawn cases back to back through checkCase, so every run
// inherits buffers grown by a differently shaped one — other tree,
// strategy, output shape, worker count, chunk size, shard restriction,
// selection, commits, provider and output collection — and each case
// must pass checkCase, and its first run must report exactly the Stats
// it reports on an empty free list. Every eighth case instead fails mid-scan, and the
// case after it is held to the same standard. A failure prints the
// case; the seed replays the sequence.
func TestScratchReuseDifferential(t *testing.T) {
	defer swapFreeList(swapFreeList(nil))
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 240; i++ {
		c := drawCase(rng)
		if i%8 == 5 {
			c.rows, c.m = 3000, 99 // every driver row joins: many chunks, some output
			ds, opts, _ := c.query()
			if err := failRun(ds, opts, i/8%3); err != nil {
				t.Fatalf("run %d (%+v): %v", i, c, err)
			}
			continue
		}
		got := checkCase(t, c)
		ds, opts, _ := c.query()
		inherited := swapFreeList(nil)
		fresh := must(Run(ds, opts))
		swapFreeList(inherited)
		if !reflect.DeepEqual(got, fresh) {
			t.Fatalf("run %d (%+v): stats differ between inherited and fresh scratch:\n inherited %+v\n fresh     %+v", i, c, got, fresh)
		}
	}
	if parkedCount() == 0 {
		t.Fatal("no scratch was ever parked: the sequence tested nothing")
	}
}

// TestScratchReuseConcurrent is the differential across goroutines:
// four of them, each with its own drawn queries, run them twice
// against one free list, so scratches migrate between goroutines and
// trees mid-flight. Expected stats come from a sequential pass on an
// empty list. Its value is under -race.
func TestScratchReuseConcurrent(t *testing.T) {
	defer swapFreeList(swapFreeList(nil))
	type query struct {
		ds   *storage.Dataset
		opts Options
		want Stats
	}
	const goroutines, perGoroutine = 4, 16
	queries := make([][]query, goroutines)
	rng := rand.New(rand.NewSource(31))
	for g := range queries {
		for i := 0; i < perGoroutine; i++ {
			c := drawCase(rng)
			ds, opts, _ := c.query()
			if c.shards != 0 {
				opts.DriverRows = must(shard.Partition(ds, 2))[0].Rows
			}
			swapFreeList(nil)
			queries[g] = append(queries[g], query{ds, opts, must(Run(ds, opts))})
		}
	}
	swapFreeList(nil)

	var wg sync.WaitGroup
	for g := range queries {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i, q := range queries[g] {
					got, err := Run(q.ds, q.opts)
					if err != nil {
						t.Errorf("goroutine %d query %d: %v", g, i, err)
						return
					}
					if !reflect.DeepEqual(got, q.want) {
						t.Errorf("goroutine %d query %d: stats diverge under concurrent reuse:\n got %+v\nwant %+v", g, i, got, q.want)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// runWithSentinels runs BVP and STD queries — filter passes, table
// probes, the factor chunk, a masked driver scan, output collection — against a dataset it then forgets, having hung a
// finalizer on everything a parked scratch could pin: the dataset, a
// driver column, every table and its filter words, the artifact
// provider and the collection closure's captured state. It returns how
// many finalizers must run.
//
//go:noinline
func runWithSentinels(t *testing.T, freed chan<- string) int {
	tr := plan.Snowflake(2, 1, plan.FixedStats(0.8, 2))
	ds := workload.Generate(tr, workload.Config{DriverRows: 3000, Seed: 9})
	order := plan.Order(tr.NonRoot())
	store := newTableStore()
	captured := new([64]byte)
	rows := storage.NewBitmap(ds.Relation(plan.Root).NumRows())
	rows.Clear(7)

	for _, s := range []cost.Strategy{cost.BVPCOM, cost.BVPSTD, cost.STD} {
		for _, restrict := range []*storage.Bitmap{nil, rows} {
			if _, err := Run(ds, Options{
				Strategy: s, Order: order, FlatOutput: true, ChunkSize: 512,
				Artifacts: store, DriverRows: restrict,
				CollectOutput: func(tuple []int32) { captured[0] += byte(tuple[0]) },
			}); err != nil {
				t.Fatal(err)
			}
		}
	}

	n := 0
	watch := func(name string, p any) {
		n++
		runtime.SetFinalizer(p, func(any) { freed <- name })
	}
	watch("dataset", ds)
	watch("driver column", &ds.Relation(plan.Root).Column("id")[0])
	watch("provider", store)
	watch("closure state", captured)
	watch("driver-row restriction", rows)
	for id, tbl := range store.tables {
		watch(fmt.Sprintf("table %d", id), tbl)
		watch(fmt.Sprintf("filter words %d", id), &tbl.FilterWords()[0])
	}
	return n
}

// TestParkedScratchPinsNothing: parking clears every reference to run
// data. Everything the runs touched is collected while the scratches
// they grew sit on the free list.
func TestParkedScratchPinsNothing(t *testing.T) {
	defer swapFreeList(swapFreeList(nil))
	freed := make(chan string, 64)
	pending := runWithSentinels(t, freed)
	if parkedCount() == 0 {
		t.Fatal("the runs parked no scratch")
	}

	// A finalizer runs on its own goroutine after the cycle that found
	// its object unreachable, and filter words wait for their table's
	// finalizer first, so collect until all have reported.
	deadline := time.After(20 * time.Second)
	for pending > 0 {
		runtime.GC()
		select {
		case <-freed:
			pending--
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatalf("%d objects still reachable with %d scratches parked", pending, parkedCount())
		}
	}
	if parkedCount() == 0 {
		t.Fatal("free list emptied during the test")
	}
}

// TestFreeListBounds: a scratch past the byte bound is dropped, not
// parked, and the list never holds more than maxParked.
func TestFreeListBounds(t *testing.T) {
	defer swapFreeList(swapFreeList(nil))
	big := &scratch{rows: make([]int32, maxParkedBytes/4+1)}
	big.park()
	if n := parkedCount(); n != 0 {
		t.Fatalf("a %d-byte scratch was parked (bound %d)", big.bytes(), maxParkedBytes)
	}
	for i := 0; i < maxParked+3; i++ {
		(&scratch{rows: make([]int32, 16)}).park()
	}
	if n := parkedCount(); n != maxParked {
		t.Fatalf("%d scratches parked, bound %d", n, maxParked)
	}
}
