package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// spanRec is one harness span: a timed call into a module's public
// API, made from outside the program. Spans of one operation share Op;
// Parent is an index into the recorder's span list (-1 for a root).
type spanRec struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	// StartNs and EndNs are offsets from the recorder's start.
	StartNs int64 `json:"startNs"`
	EndNs   int64 `json:"endNs"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the measured phase: every method is a no-op, so end-to-end metrics
// are taken with no harness spans.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []spanRec
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

const noSpan = -1

// start opens a span and returns its index.
func (r *recorder) start(name string, parent, op int) int {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{Name: name, Op: op, Parent: parent, StartNs: now, EndNs: -1})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// add records a span whose bounds are already known — timings the
// program's public API returned (Result.Queued, Result.Elapsed).
func (r *recorder) add(name string, parent, op int, start time.Time, d time.Duration) int {
	if r == nil {
		return noSpan
	}
	s := start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{Name: name, Op: op, Parent: parent, StartNs: s, EndNs: s + d.Nanoseconds()})
	return len(r.spans) - 1
}

// kernel times one direct kernel call under a root span.
func (r *recorder) kernel(name string, fn func()) time.Duration {
	id := r.start(name, noSpan, 0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.end(id)
	return d
}

// selfTimes sums, per span name, each span's duration minus the part
// of that interval its child spans cover (children may overlap one
// another, as parallel shards do, so the covered part is the length of
// the union of child intervals clipped to the parent).
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.EndNs < s.StartNs {
			continue // never closed
		}
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := spans[c].StartNs, spans[c].EndNs
			if lo < s.StartNs {
				lo = s.StartNs
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.StartNs
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		out[s.Name] += time.Duration(s.EndNs - s.StartNs - covered)
	}
	return out
}

// spanMedians is the median duration of the closed spans of each name.
func spanMedians(spans []spanRec) map[string]time.Duration {
	byName := make(map[string][]time.Duration)
	for _, s := range spans {
		if s.EndNs >= s.StartNs {
			byName[s.Name] = append(byName[s.Name], time.Duration(s.EndNs-s.StartNs))
		}
	}
	out := make(map[string]time.Duration, len(byName))
	for name, d := range byName {
		out[name] = medianDuration(d)
	}
	return out
}

// write dumps the spans as JSON; called once, when the run ends.
func (r *recorder) write(path string) error {
	if r == nil || path == "" {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
