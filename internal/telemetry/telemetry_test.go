package telemetry

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually-advanced clock for deterministic spans.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1000, 0)}
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestTraceSpanTree(t *testing.T) {
	clk := newFakeClock()
	tr := NewTrace(clk.now)

	root := tr.Start("query", NoParent)
	clk.advance(1 * time.Millisecond)
	child := tr.Start("exec", root)
	tr.Annotate(child, "chunks", 7)
	clk.advance(2 * time.Millisecond)
	grand := tr.Start("probe", child)
	clk.advance(3 * time.Millisecond)
	tr.End(grand)
	tr.End(child)
	clk.advance(1 * time.Millisecond)
	// Retroactive span: a wait measured before tracing knew about it.
	tr.AddSpan("queue", root, clk.now().Add(-500*time.Microsecond), clk.now())
	tr.End(root)

	node := tr.Finish()
	if node == nil || node.Name != "query" {
		t.Fatalf("root = %+v, want query", node)
	}
	if got := node.DurationNanos; got != int64(7*time.Millisecond) {
		t.Errorf("root duration = %d, want %d", got, 7*time.Millisecond)
	}
	ex := node.Find("exec")
	if ex == nil {
		t.Fatal("exec span missing")
	}
	if ex.DurationNanos != int64(5*time.Millisecond) {
		t.Errorf("exec duration = %d, want %d", ex.DurationNanos, 5*time.Millisecond)
	}
	if ex.Attrs["chunks"] != 7 {
		t.Errorf("exec attrs = %v, want chunks=7", ex.Attrs)
	}
	pr := ex.Find("probe")
	if pr == nil || pr.DurationNanos != int64(3*time.Millisecond) {
		t.Errorf("probe span = %+v, want 3ms", pr)
	}
	q := node.Find("queue")
	if q == nil || q.DurationNanos != int64(500*time.Microsecond) {
		t.Errorf("queue span = %+v, want 500µs", q)
	}
	// Children of the root: exec and queue.
	if len(node.Children) != 2 {
		t.Errorf("root children = %d, want 2", len(node.Children))
	}

	// Reset reuses the arena.
	tr.Reset()
	if got := tr.Finish(); len(got.Children) != 0 || got.Name != "trace" {
		t.Errorf("after Reset, Finish = %+v, want empty synthetic root", got)
	}
}

func TestTraceNilAndInvalidIDs(t *testing.T) {
	var tr *Trace
	id := tr.Start("x", NoParent)
	if id != NoParent {
		t.Errorf("nil trace Start = %d, want NoParent", id)
	}
	tr.End(id)
	tr.Annotate(id, "k", 1)
	tr.AddSpan("y", id, time.Now(), time.Now())
	tr.Reset()
	if tr.Finish() != nil {
		t.Error("nil trace Finish != nil")
	}

	// Disabled-path cost: methods on a nil trace must not allocate.
	allocs := testing.AllocsPerRun(100, func() {
		id := tr.Start("probe", NoParent)
		tr.Annotate(id, "k", 1)
		tr.End(id)
	})
	if allocs != 0 {
		t.Errorf("nil-trace span ops allocate %.1f/op, want 0", allocs)
	}

	// Invalid parents clamp to root; invalid ids are ignored.
	real := NewTrace(nil)
	id = real.Start("a", SpanID(99))
	real.End(SpanID(42))
	real.Annotate(SpanID(-3), "k", 1)
	node := real.Finish()
	if node == nil || node.Name != "a" {
		t.Fatalf("clamped-parent tree = %+v", node)
	}
	_ = id
}

func TestTraceSteadyStateReuseDoesNotGrow(t *testing.T) {
	clk := newFakeClock()
	tr := NewTrace(clk.now)
	span := func() {
		root := tr.Start("query", NoParent)
		for i := 0; i < 8; i++ {
			s := tr.Start("build", root)
			tr.Annotate(s, "rel", int64(i))
			tr.End(s)
		}
		tr.End(root)
		tr.Finish()
		tr.Reset()
	}
	span() // warm the arena
	// Steady state: the arena is warm, so span recording itself must
	// not allocate (Finish builds the result tree, which does).
	allocs := testing.AllocsPerRun(50, func() {
		root := tr.Start("query", NoParent)
		for i := 0; i < 8; i++ {
			s := tr.Start("build", root)
			tr.Annotate(s, "rel", int64(i))
			tr.End(s)
		}
		tr.End(root)
		tr.Reset()
	})
	if allocs != 0 {
		t.Errorf("warm span recording allocates %.1f/op, want 0", allocs)
	}
}

// TestHistogramBucketsAndQuantiles reads a histogram back the way
// m2mload does: through the exposition, ParseText and
// HistogramQuantiles.
func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("m2m_test_seconds", "", nil)
	// 100 observations at 1ms, 10 at 100ms, 1 at 10s.
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	h.Observe(10 * time.Second)
	if h.Count() != 111 {
		t.Fatalf("count = %d, want 111", h.Count())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sum := SumSamples(samples, "m2m_test_seconds_sum", nil); math.Abs(sum-11.1) > 1e-9 {
		t.Errorf("sum = %gs, want 11.1s", sum)
	}
	qs, n := HistogramQuantiles(samples, "m2m_test_seconds", []float64{0.50, 0.99})
	if n != 111 {
		t.Errorf("exposed count = %d, want 111", n)
	}
	if p50 := qs[0]; p50 < 100*time.Microsecond || p50 > 2*time.Millisecond {
		t.Errorf("p50 = %v, want ~1ms", p50)
	}
	if p99 := qs[1]; p99 < 50*time.Millisecond || p99 > 300*time.Millisecond {
		t.Errorf("p99 = %v, want ~100ms bucket", p99)
	}

	// Observe is on the query return path: it must not allocate.
	allocs := testing.AllocsPerRun(100, func() { h.Observe(time.Millisecond) })
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f/op, want 0", allocs)
	}
}

func TestRegistryExpositionRoundTrip(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("m2m_test_total", "test counter", Labels{{Name: "class", Value: "ok"}})
	c.Add(5)
	r.Counter("m2m_test_total", "test counter", Labels{{Name: "class", Value: "shed"}}).Add(2)
	r.GaugeFunc("m2m_test_gauge", "test gauge", nil, func() int64 { return 42 })
	var shadow int64 = 7
	r.CounterFunc("m2m_shadow_total", "fn-backed", Labels{{Name: "kind", Value: `a"b\c`}},
		func() int64 { return shadow })
	h := r.Histogram("m2m_test_seconds", "test histogram", Labels{{Name: "dataset", Value: "d1"}})
	h.Observe(3 * time.Millisecond)
	h.Observe(5 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE m2m_test_total counter",
		`m2m_test_total{class="ok"} 5`,
		`m2m_test_total{class="shed"} 2`,
		"# TYPE m2m_test_gauge gauge",
		"m2m_test_gauge 42",
		"# TYPE m2m_test_seconds histogram",
		`m2m_test_seconds_count{dataset="d1"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}

	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if got := SumSamples(samples, "m2m_test_total", nil); got != 7 {
		t.Errorf("sum m2m_test_total = %g, want 7", got)
	}
	if got := SumSamples(samples, "m2m_test_total", map[string]string{"class": "shed"}); got != 2 {
		t.Errorf("shed = %g, want 2", got)
	}
	if got := SumSamples(samples, "m2m_shadow_total", nil); got != 7 {
		t.Errorf("shadow = %g, want 7", got)
	}
	// Escaped label value round-trips.
	found := false
	for _, s := range samples {
		if s.Name == "m2m_shadow_total" && s.Labels["kind"] == `a"b\c` {
			found = true
		}
	}
	if !found {
		t.Errorf("escaped label did not round-trip: %+v", samples)
	}
	qs, n := HistogramQuantiles(samples, "m2m_test_seconds", []float64{0.5, 0.99})
	if n != 2 {
		t.Errorf("histogram count = %d, want 2", n)
	}
	if qs[0] < time.Millisecond || qs[0] > 10*time.Millisecond {
		t.Errorf("parsed p50 = %v, want low ms", qs[0])
	}

	// Same name+labels returns the same instrument.
	if c2 := r.Counter("m2m_test_total", "", Labels{{Name: "class", Value: "ok"}}); c2 != c {
		t.Error("re-registration returned a different counter")
	}
}

func TestRingBoundedNewestFirst(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(TraceRecord{Dataset: string(rune('a' + i))})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	snap := r.Snapshot(0)
	if len(snap) != 3 || snap[0].Dataset != "e" || snap[2].Dataset != "c" {
		t.Errorf("snapshot = %+v, want e,d,c", snap)
	}
	if got := r.Snapshot(2); len(got) != 2 || got[0].Dataset != "e" {
		t.Errorf("limited snapshot = %+v", got)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace(nil)
	root := tr.Start("query", NoParent)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s := tr.Start("build", root)
				tr.Annotate(s, "rel", int64(i))
				tr.End(s)
			}
		}(i)
	}
	wg.Wait()
	tr.End(root)
	node := tr.Finish()
	if len(node.Children) != 800 {
		t.Errorf("children = %d, want 800", len(node.Children))
	}
}

// TestRegistryConcurrentFirstUse: goroutines racing to first-touch one
// labelled counter and one labelled histogram series — while a scrape
// runs — must all get the same instrument, so no observation lands on a
// pointer another goroutine overwrote. Run under -race in CI: the series value is
// initialised under the lock that creates the series.
func TestRegistryConcurrentFirstUse(t *testing.T) {
	const n = 16
	reg := NewRegistry()
	labels := Labels{{"outcome", "ok"}}
	hs := make([]*Histogram, n)
	cs := make([]*Counter, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			hs[i] = reg.Histogram("dispatch_seconds", "", labels)
			hs[i].Observe(time.Millisecond)
			cs[i] = reg.Counter("dispatches_total", "", labels)
			cs[i].Inc()
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		if err := reg.WritePrometheus(&bytes.Buffer{}); err != nil {
			t.Error(err)
		}
	}()
	close(start)
	wg.Wait()
	for i := 1; i < n; i++ {
		if hs[i] != hs[0] || cs[i] != cs[0] {
			t.Fatalf("goroutine %d got a different instrument for the same series", i)
		}
	}
	if hs[0].Count() != n || cs[0].Value() != n {
		t.Fatalf("lost updates: histogram %d counter %d, want %d each", hs[0].Count(), cs[0].Value(), n)
	}
}
