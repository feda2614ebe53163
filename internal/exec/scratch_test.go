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

// reuseDataset is one input of the reuse differentials, with its
// oracle answers.
type reuseDataset struct {
	name string
	ds   *storage.Dataset
	// sel is a selection on the first non-root relation's join key: it
	// shapes that relation's table and thins the output.
	sel                []Selection
	count, selCount    int64
	checksum, selCheck uint64
}

func newReuseDataset(name string, tr *plan.Tree, rows int, seed int64) *reuseDataset {
	d := &reuseDataset{name: name, ds: workload.Generate(tr, workload.Config{DriverRows: rows, Seed: seed})}
	first := tr.NonRoot()[0]
	col := d.ds.KeyColumn(first)
	d.sel = []Selection{{Rel: first, Column: col, Value: d.ds.Relation(first).Column(col)[0]}}
	d.count, d.checksum = Reference(d.ds)
	d.selCount, d.selCheck = ReferenceOpts(d.ds, nil, d.sel)
	return d
}

// reuseDatasets are the four tree shapes the differentials alternate
// between, sized so a 2048-row chunk still makes several chunks.
func reuseDatasets() []*reuseDataset {
	rng := rand.New(rand.NewSource(5))
	two := plan.NewTree("R1")
	two.AddChild(plan.Root, plan.EdgeStats{M: 0.7, Fo: 3}, "R2")
	return []*reuseDataset{
		newReuseDataset("star6", plan.Star(6, plan.UniformStats(rng, 0.5, 0.9, 1, 3)), 4200, 1),
		newReuseDataset("path7", plan.Path(7, plan.UniformStats(rng, 0.6, 0.9, 1, 2)), 4500, 2),
		newReuseDataset("snowflake32", plan.Snowflake(3, 2, plan.UniformStats(rng, 0.6, 0.9, 1, 2)), 4200, 3),
		newReuseDataset("two", two, 5000, 4),
	}
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

// reuseCase is one drawn run shape.
type reuseCase struct {
	d        *reuseDataset
	opts     Options // without CollectOutput and DriverRows
	collect  bool
	restrict *storage.Bitmap // nil = whole driver
	selected bool
}

func drawReuseCase(rng *rand.Rand, sets []*reuseDataset, prev *reuseDataset) reuseCase {
	d := sets[rng.Intn(len(sets))]
	for d == prev { // consecutive runs always change tree
		d = sets[rng.Intn(len(sets))]
	}
	c := reuseCase{d: d}
	c.opts = Options{
		Strategy:     cost.AllStrategies[rng.Intn(len(cost.AllStrategies))],
		Order:        randomOrder(d.ds.Tree, rng),
		FlatOutput:   rng.Intn(2) == 0,
		Parallelism:  1 + rng.Intn(2),
		ChunkSize:    []int{256, 2048}[rng.Intn(2)],
		NoInterleave: rng.Intn(4) == 0,
	}
	if rng.Intn(3) == 0 {
		c.selected = true
		c.opts.Selections = d.sel
	}
	if rng.Intn(3) == 0 {
		n := d.ds.Relation(plan.Root).NumRows()
		c.restrict = storage.NewEmptyBitmap(n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				c.restrict.Set(i)
			}
		}
	}
	c.collect = c.opts.FlatOutput && rng.Intn(3) == 0
	return c
}

// execute runs the case (restricted to rows when non-nil) and checks
// that what CollectOutput saw is what the stats report.
func (c reuseCase) execute(rows *storage.Bitmap) (Stats, error) {
	opts := c.opts
	opts.DriverRows = rows
	var mu sync.Mutex
	var tuples int64
	var sum uint64
	if c.collect {
		opts.CollectOutput = func(tuple []int32) {
			mu.Lock()
			tuples++
			sum += checksumCanonical(tuple)
			mu.Unlock()
		}
	}
	st, err := Run(c.d.ds, opts)
	if err == nil && c.collect && (tuples != st.OutputTuples || sum != st.Checksum) {
		err = fmt.Errorf("collected %d tuples (checksum %x), stats report %d (%x)",
			tuples, sum, st.OutputTuples, st.Checksum)
	}
	return st, err
}

// check runs the case on whatever scratch the previous run parked and
// again on an empty free list, and holds both against the oracle. A
// driver-row restriction runs as the row set and its complement, whose
// sum must be the whole answer.
func (c reuseCase) check() error {
	parts := []*storage.Bitmap{nil}
	if c.restrict != nil {
		rest := storage.NewBitmap(c.restrict.Len())
		rest.Retain(func(row int) bool { return !c.restrict.Get(row) })
		parts = []*storage.Bitmap{c.restrict, rest}
	}
	var count int64
	var checksum uint64
	for _, rows := range parts {
		got, err := c.execute(rows)
		if err != nil {
			return fmt.Errorf("on inherited scratch: %w", err)
		}
		inherited := swapFreeList(nil)
		fresh, err := c.execute(rows)
		swapFreeList(inherited)
		if err != nil {
			return fmt.Errorf("on an empty free list: %w", err)
		}
		if !reflect.DeepEqual(got, fresh) {
			return fmt.Errorf("stats differ between inherited and fresh scratch:\n inherited %+v\n fresh     %+v", got, fresh)
		}
		count += got.OutputTuples
		checksum += got.Checksum
	}
	wantCount, wantSum := c.d.count, c.d.checksum
	if c.selected {
		wantCount, wantSum = c.d.selCount, c.d.selCheck
	}
	// Factorized output counts without enumerating, so only a flat run
	// has a checksum to compare.
	if count != wantCount || c.opts.FlatOutput && checksum != wantSum {
		return fmt.Errorf("output %d tuples (checksum %x), reference %d (%x)", count, checksum, wantCount, wantSum)
	}
	return nil
}

func (c reuseCase) String() string {
	return fmt.Sprintf("%s %v order=%v flat=%v par=%d chunk=%d nointerleave=%v selected=%v restricted=%v collect=%v",
		c.d.name, c.opts.Strategy, c.opts.Order, c.opts.FlatOutput, c.opts.Parallelism, c.opts.ChunkSize,
		c.opts.NoInterleave, c.selected, c.restrict != nil, c.collect)
}

// failRun runs the case, over many small chunks, so that it fails
// mid-scan — an injected probe-chunk error, an injected panic, or a
// context cancelled from inside the first chunk's output — and checks
// that it failed that way and parked nothing.
func (c reuseCase) failRun(kind int) error {
	opts := c.opts
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
		_, err = Run(c.d.ds, opts)
		faultinject.Disable()
	default:
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opts.Ctx = ctx
		opts.FlatOutput = true
		opts.CollectOutput = func([]int32) { cancel() }
		want = func(err error) bool { return errors.Is(err, context.Canceled) }
		_, err = Run(c.d.ds, opts)
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
// a seeded sequence of runs that change tree, strategy, output shape,
// worker count, chunk size, driver restriction, selection, probe
// schedule and output collection from one run to the next, so every
// run inherits buffers grown by a differently shaped one; each must
// report exactly the Stats it reports on an empty free list and the
// oracle's answer. Failing runs are interleaved, and the run after
// each is held to the same standard. A failure prints the case; the
// seed replays the sequence.
func TestScratchReuseDifferential(t *testing.T) {
	defer swapFreeList(swapFreeList(nil))
	sets := reuseDatasets()
	rng := rand.New(rand.NewSource(29))
	var prev *reuseDataset
	for i := 0; i < 240; i++ {
		c := drawReuseCase(rng, sets, prev)
		prev = c.d
		if i%8 == 5 {
			if err := c.failRun(i / 8 % 3); err != nil {
				t.Fatalf("run %d (%v): %v", i, c, err)
			}
			continue
		}
		if err := c.check(); err != nil {
			t.Fatalf("run %d (%v): %v", i, c, err)
		}
	}
	if parkedCount() == 0 {
		t.Fatal("no scratch was ever parked: the sequence tested nothing")
	}
}

// TestScratchReuseConcurrent is the differential across goroutines:
// four of them, each on its own dataset, run drawn cases against one
// free list, so scratches migrate between goroutines and trees
// mid-flight. Expected stats come from a sequential pass on an empty
// list. Its value is under -race.
func TestScratchReuseConcurrent(t *testing.T) {
	defer swapFreeList(swapFreeList(nil))
	sets := reuseDatasets()
	const perSet = 16
	cases := make([][]reuseCase, len(sets))
	want := make([][]Stats, len(sets))
	rng := rand.New(rand.NewSource(31))
	for g, d := range sets {
		for i := 0; i < perSet; i++ {
			c := drawReuseCase(rng, []*reuseDataset{d}, nil)
			swapFreeList(nil)
			st, err := c.execute(c.restrict)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			cases[g] = append(cases[g], c)
			want[g] = append(want[g], st)
		}
	}
	swapFreeList(nil)

	var wg sync.WaitGroup
	for g := range sets {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for i, c := range cases[g] {
					got, err := c.execute(c.restrict)
					if err != nil {
						t.Errorf("%v: %v", c, err)
						return
					}
					if !reflect.DeepEqual(got, want[g][i]) {
						t.Errorf("%v: stats diverge under concurrent reuse:\n got %+v\nwant %+v", c, got, want[g][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// runWithSentinels runs BVP and STD queries — filter links, fused and
// unfused table links, the factor chunk, a masked driver scan, output
// collection — against a dataset it then forgets, having hung a
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
