package telemetry

import (
	"bytes"
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

// TestHistogramBucketsAndQuantiles spreads observations over two
// series of one family: the exposition carries each series' buckets and
// sum, and HistogramQuantiles reads the family summed over its series,
// exactly as one series holding every observation reads.
func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	a := r.Histogram("m2m_test_seconds", "", Labels{{"dataset", "a"}})
	b := r.Histogram("m2m_test_seconds", "", Labels{{"dataset", "b"}})
	one := NewRegistry()
	all := one.Histogram("m2m_test_seconds", "", nil)
	// 100 observations at 1ms on a; 10 at 100ms and 1 at 10s on b.
	for _, o := range []struct {
		h *Histogram
		d time.Duration
		n int
	}{{a, time.Millisecond, 100}, {b, 100 * time.Millisecond, 10}, {b, 10 * time.Second, 1}} {
		for i := 0; i < o.n; i++ {
			o.h.Observe(o.d)
			all.Observe(o.d)
		}
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`m2m_test_seconds_bucket{dataset="a",le="0.001024"} 100` + "\n",
		`m2m_test_seconds_bucket{dataset="b",le="0.065536"} 0` + "\n",
		`m2m_test_seconds_bucket{dataset="b",le="0.131072"} 10` + "\n",
		`m2m_test_seconds_bucket{dataset="b",le="+Inf"} 11` + "\n",
		`m2m_test_seconds_sum{dataset="a"} 0.1` + "\n",
		`m2m_test_seconds_sum{dataset="b"} 11` + "\n",
		`m2m_test_seconds_count{dataset="b"} 11` + "\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q in:\n%s", want, buf.String())
		}
	}

	qs := []float64{0.50, 0.95, 0.99}
	got, n := r.HistogramQuantiles("m2m_test_seconds", qs)
	want, wantN := one.HistogramQuantiles("m2m_test_seconds", qs)
	if n != 111 || wantN != 111 {
		t.Errorf("summed count = %d, one series' = %d, want 111", n, wantN)
	}
	for i := range qs {
		if got[i] != want[i] {
			t.Errorf("q%v summed over two series = %v, one series = %v", qs[i], got[i], want[i])
		}
	}
	if p50 := got[0]; p50 < 512*time.Microsecond || p50 > 1024*time.Microsecond {
		t.Errorf("p50 = %v, want inside the 1ms observations' bucket", p50)
	}
	if p99 := got[2]; p99 < 65536*time.Microsecond || p99 > 131072*time.Microsecond {
		t.Errorf("p99 = %v, want inside the 100ms observations' bucket", p99)
	}
	r.Counter("m2m_test_total", "", nil).Inc()
	for _, name := range []string{"m2m_unknown_seconds", "m2m_test_total"} {
		if qs, n := r.HistogramQuantiles(name, []float64{0.5}); n != 0 || qs[0] != 0 {
			t.Errorf("%s: quantiles %v over %d observations, want none", name, qs, n)
		}
	}

	// Observe is on the query return path: it must not allocate.
	allocs := testing.AllocsPerRun(100, func() { a.Observe(time.Millisecond) })
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

	// The escaped label value is rendered escaped.
	if want := `m2m_shadow_total{kind="a\"b\\c"} 7`; !strings.Contains(text, want) {
		t.Errorf("exposition missing %q in:\n%s", want, text)
	}
	qs, n := r.HistogramQuantiles("m2m_test_seconds", []float64{0.5, 0.99})
	if n != 2 {
		t.Errorf("histogram count = %d, want 2", n)
	}
	if qs[0] < time.Millisecond || qs[0] > 10*time.Millisecond {
		t.Errorf("p50 = %v, want low ms", qs[0])
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
	if _, hn := reg.HistogramQuantiles("dispatch_seconds", nil); hn != n || cs[0].Value() != n {
		t.Fatalf("lost updates: histogram %d counter %d, want %d each", hn, cs[0].Value(), n)
	}
}
