// Package telemetry is the observability layer of the serving stack:
// a per-query span tracer, a metrics registry with Prometheus text
// exposition and a bounded recent-trace ring. It holds no process-wide
// state: every instrument belongs to the component that records it.
//
// Design constraints mirror internal/faultinject's disarmed-path
// discipline:
//
//   - Tracing is collector-driven: a query that did not ask for a
//     trace carries a nil *Trace, and every span method is a nil-
//     receiver no-op — zero allocations, one pointer test — so the
//     executor's allocation-free probe invariants survive untouched.
//   - Clocks are injectable. A Trace stamps spans with its own now
//     function, so tests drive deterministic durations.
//   - Spans are pooled-friendly: a Trace owns one grow-only span
//     arena with inline attribute storage, and Reset rewinds it, so a
//     serving layer recycling traces through a sync.Pool allocates
//     nothing per query in steady state (the span-pool bound pinned
//     by the exec allocation tests).
package telemetry

import (
	"sync"
	"time"
)

// SpanID indexes a span within its Trace. The zero value is the first
// span started; NoParent marks a root span.
type SpanID int32

// NoParent is the parent of a root span.
const NoParent SpanID = -1

// maxSpanAttrs is the inline attribute capacity per span; extra
// Annotate calls are dropped (spans carry a handful of integers, not
// payloads).
const maxSpanAttrs = 4

// Attr is one integer span attribute.
type Attr struct {
	Key   string
	Value int64
}

// span is one arena slot. start/end are offsets from the trace start;
// end < 0 means still open.
type span struct {
	name       string
	parent     SpanID
	start, end time.Duration
	nattrs     int8
	attrs      [maxSpanAttrs]Attr
}

// Trace collects one query's span tree. All methods are safe for
// concurrent use (phase-1 builds and shard dispatches open spans from
// worker goroutines) and safe on a nil receiver, which is the disabled
// path: nil.Start returns NoParent and allocates nothing.
type Trace struct {
	now   func() time.Time
	start time.Time

	mu    sync.Mutex
	spans []span
}

// NewTrace creates a trace whose spans are stamped by now (nil uses
// time.Now). The trace clock starts immediately.
func NewTrace(now func() time.Time) *Trace {
	if now == nil {
		now = time.Now
	}
	return &Trace{now: now, start: now()}
}

// Reset rewinds the trace for reuse: the span arena keeps its
// capacity, the clock restarts. The serving layer calls this when
// recycling traces through its pool.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.start = t.now()
	t.mu.Unlock()
}

// Start opens a span under parent (NoParent for a root) and returns
// its id. An out-of-range parent is treated as NoParent, so a caller
// holding a zero-value SpanID before any span exists cannot corrupt
// the tree. Nil receiver: returns NoParent.
func (t *Trace) Start(name string, parent SpanID) SpanID {
	if t == nil {
		return NoParent
	}
	now := t.now()
	t.mu.Lock()
	if int(parent) >= len(t.spans) || parent < 0 {
		parent = NoParent
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, span{
		name:   name,
		parent: parent,
		start:  now.Sub(t.start),
		end:    -1,
	})
	t.mu.Unlock()
	return id
}

// End closes the span. Ending an already-closed or invalid id is a
// no-op. Nil receiver: no-op.
func (t *Trace) End(id SpanID) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	if int(id) < len(t.spans) && id >= 0 && t.spans[id].end < 0 {
		t.spans[id].end = now.Sub(t.start)
	}
	t.mu.Unlock()
}

// Annotate attaches an integer attribute to the span. Attributes past
// the inline capacity are dropped. Nil receiver: no-op.
func (t *Trace) Annotate(id SpanID, key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if int(id) < len(t.spans) && id >= 0 {
		sp := &t.spans[id]
		if int(sp.nattrs) < maxSpanAttrs {
			sp.attrs[sp.nattrs] = Attr{Key: key, Value: v}
			sp.nattrs++
		}
	}
	t.mu.Unlock()
}

// AddSpan records an already-finished interval as a span — the
// retroactive form used for waits whose start predates knowing they
// would be a span at all (admission queueing, shared-scan attach
// waits). Intervals are clamped to the trace epoch. Nil receiver:
// returns NoParent.
func (t *Trace) AddSpan(name string, parent SpanID, start, end time.Time) SpanID {
	if t == nil {
		return NoParent
	}
	t.mu.Lock()
	if int(parent) >= len(t.spans) || parent < 0 {
		parent = NoParent
	}
	so, eo := start.Sub(t.start), end.Sub(t.start)
	if so < 0 {
		so = 0
	}
	if eo < so {
		eo = so
	}
	id := SpanID(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, start: so, end: eo})
	t.mu.Unlock()
	return id
}

// SpanNode is one span of a finished trace, in tree form — the JSON
// shape of Result.Trace and /v1/trace.
type SpanNode struct {
	Name string `json:"name"`
	// StartNanos is the span's offset from the trace start;
	// DurationNanos its length.
	StartNanos    int64            `json:"startNs"`
	DurationNanos int64            `json:"durationNs"`
	Attrs         map[string]int64 `json:"attrs,omitempty"`
	Children      []*SpanNode      `json:"children,omitempty"`
}

// Each visits the node and its descendants depth-first.
func (n *SpanNode) Each(fn func(depth int, n *SpanNode)) {
	var walk func(d int, n *SpanNode)
	walk = func(d int, n *SpanNode) {
		fn(d, n)
		for _, c := range n.Children {
			walk(d+1, c)
		}
	}
	walk(0, n)
}

// Find returns the first descendant (or the node itself) with the
// given name, depth-first, or nil.
func (n *SpanNode) Find(name string) *SpanNode {
	if n == nil {
		return nil
	}
	if n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// Finish materializes the span tree. Spans still open are closed at
// the current clock. A single root is returned directly; multiple
// roots (or none) are wrapped under a synthetic "trace" node. The
// Trace stays reusable via Reset. Nil receiver: returns nil.
func (t *Trace) Finish() *SpanNode {
	if t == nil {
		return nil
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	nodes := make([]*SpanNode, len(t.spans))
	var roots []*SpanNode
	var maxEnd time.Duration
	for i := range t.spans {
		sp := &t.spans[i]
		end := sp.end
		if end < 0 {
			end = now.Sub(t.start)
		}
		if end > maxEnd {
			maxEnd = end
		}
		n := &SpanNode{
			Name:          sp.name,
			StartNanos:    sp.start.Nanoseconds(),
			DurationNanos: (end - sp.start).Nanoseconds(),
		}
		if sp.nattrs > 0 {
			n.Attrs = make(map[string]int64, sp.nattrs)
			for _, a := range sp.attrs[:sp.nattrs] {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[i] = n
		if sp.parent == NoParent {
			roots = append(roots, n)
		} else {
			p := nodes[sp.parent]
			p.Children = append(p.Children, n)
		}
	}
	if len(roots) == 1 {
		return roots[0]
	}
	return &SpanNode{Name: "trace", DurationNanos: maxEnd.Nanoseconds(), Children: roots}
}
