package telemetry

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name=value pair on a metric series. Label order is
// fixed at registration; series identity is the ordered value tuple.
type Label struct {
	Name, Value string
}

// Labels is an ordered label set.
type Labels []Label

// key builds the canonical series key: escaped, exposition-ready
// `name="value",...` text, which doubles as the sort key.
func (ls Labels) key() string {
	if len(ls) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotone; the
// counter does not enforce it).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram bucket ladder: powers of two in microseconds, 1µs·2^k.
// 28 finite buckets span 1µs .. ~134s; slower observations land in
// +Inf. Boundaries are fixed (no per-instance configuration) so every
// histogram in the process aggregates cleanly.
const histBuckets = 28

// histLabels[i] is the exposition string of bucket i's inclusive upper
// bound in seconds.
var histLabels [histBuckets]string

func init() {
	for i := 0; i < histBuckets; i++ {
		us := float64(int64(1) << i) // microseconds
		histLabels[i] = strconv.FormatFloat(us/1e6, 'g', -1, 64)
	}
}

// Histogram is a log-bucketed latency histogram. Observations index a
// fixed power-of-two microsecond ladder with a single bits.Len, so
// Observe is a couple of atomic adds — safe on the query return path.
type Histogram struct {
	counts [histBuckets + 1]atomic.Int64 // last slot is +Inf
	sum    atomic.Int64                  // nanoseconds
	n      atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d / time.Microsecond)
	// bucket i covers (2^(i-1), 2^i] microseconds; us==0 and us==1
	// both land in bucket 0 (≤ 1µs).
	idx := 0
	if us > 1 {
		idx = bits.Len64(us - 1)
	}
	if idx > histBuckets {
		idx = histBuckets
	}
	h.counts[idx].Add(1)
	h.sum.Add(int64(d))
	h.n.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n.Load() }

// quantileFromCumulative interpolates a quantile from cumulative
// bucket counts over the given upper boundaries (seconds); the final
// cum entry is the +Inf bucket.
func quantileFromCumulative(q, total float64, cum []float64, bounds []float64) time.Duration {
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * total
	for i, c := range cum {
		if c < rank {
			continue
		}
		if i >= len(bounds) {
			// +Inf bucket: report the highest finite boundary.
			return secondsToDuration(bounds[len(bounds)-1])
		}
		lo, loCount := 0.0, 0.0
		if i > 0 {
			lo, loCount = bounds[i-1], cum[i-1]
		}
		width := c - loCount
		if width <= 0 {
			return secondsToDuration(bounds[i])
		}
		frac := (rank - loCount) / width
		return secondsToDuration(lo + (bounds[i]-lo)*frac)
	}
	return secondsToDuration(bounds[len(bounds)-1])
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// metricKind tags a family's exposition TYPE.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// series is one labeled instance within a family. Exactly one of the
// value fields is set, matching the family kind; fn-backed series
// read their value at scrape time, from state another component owns.
type series struct {
	labels string // canonical key; also the exposition label text
	c      *Counter
	h      *Histogram
	fn     func() int64
}

// family is one metric name: HELP/TYPE plus its series.
type family struct {
	name, help string
	kind       metricKind

	mu     sync.Mutex
	series map[string]*series
	order  []string // insertion order; sorted at exposition
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use;
// registration is idempotent (same name+labels returns the existing
// instrument).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, kind metricKind) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f = r.families[name]; f != nil {
		return f
	}
	f = &family{name: name, help: help, kind: kind, series: make(map[string]*series)}
	r.families[name] = f
	r.order = append(r.order, name)
	return f
}

// get returns the series for labels, creating it on first use. init
// sets the new series' value field and runs under the lock that
// publishes the series, so concurrent first users and scrapes all see
// one fully initialised instrument; a series' fields never change
// after that.
func (f *family) get(labels Labels, init func(*series)) *series {
	key := labels.key()
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = &series{labels: key}
		init(s)
		f.series[key] = s
		f.order = append(f.order, key)
	}
	return s
}

// Counter returns (registering if needed) the counter series for the
// given name and labels.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.family(name, help, kindCounter).get(labels, func(s *series) { s.c = &Counter{} }).c
}

// Histogram returns (registering if needed) the histogram series.
func (r *Registry) Histogram(name, help string, labels Labels) *Histogram {
	return r.family(name, help, kindHistogram).get(labels, func(s *series) { s.h = &Histogram{} }).h
}

// CounterFunc registers a counter series whose value is read from fn
// at scrape time: a count some other component keeps (a cache's hits
// under its own lock) stays the source of truth and the exposition can
// never drift from it. Re-registering the same series keeps the first
// registration.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() int64) {
	r.family(name, help, kindCounter).get(labels, func(s *series) { s.fn = fn })
}

// GaugeFunc registers a gauge series read from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() int64) {
	r.family(name, help, kindGauge).get(labels, func(s *series) { s.fn = fn })
}

// WritePrometheus renders the registry in Prometheus text exposition
// format (version 0.0.4): families sorted by name, series sorted by
// label key, histograms as cumulative _bucket/_sum/_count in seconds.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		ss := make([]*series, len(keys))
		for i, k := range keys {
			ss[i] = f.series[k]
		}
		f.mu.Unlock()
		sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })

		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range ss {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	if f.kind == kindHistogram {
		return writeHistogram(w, f.name, s)
	}
	var v int64
	switch {
	case s.fn != nil:
		v = s.fn()
	case s.c != nil:
		v = s.c.Value()
	}
	_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, braced(s.labels), v)
	return err
}

func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	if h == nil {
		return nil
	}
	cum := int64(0)
	for i := 0; i < histBuckets; i++ {
		cum += h.counts[i].Load()
		if err := writeBucket(w, name, s.labels, histLabels[i], cum); err != nil {
			return err
		}
	}
	cum += h.counts[histBuckets].Load()
	if err := writeBucket(w, name, s.labels, "+Inf", cum); err != nil {
		return err
	}
	secs := float64(h.sum.Load()) / float64(time.Second)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, braced(s.labels),
		strconv.FormatFloat(secs, 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, braced(s.labels), h.n.Load())
	return err
}

func writeBucket(w io.Writer, name, labels, le string, cum int64) error {
	sep := ""
	if labels != "" {
		sep = ","
	}
	_, err := fmt.Fprintf(w, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, cum)
	return err
}

func braced(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}
