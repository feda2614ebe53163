package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// supportedRank returns the 1-based rank, in an ascending sample of n,
// of the highest percentile not above want that leaves at least ten
// samples beyond it, so a tail figure is never set by one or two
// outliers. Below twenty samples only the median qualifies.
func supportedRank(n int, want float64) int {
	rank := int(math.Ceil(want*float64(n) - 1e-9))
	if rank > n-10 {
		rank = n - 10
	}
	if half := (n + 1) / 2; rank < half {
		rank = half
	}
	return rank
}

// supportedPercentile is supportedRank as a share of the sample.
func supportedPercentile(n int, want float64) float64 {
	if n == 0 {
		return want
	}
	return float64(supportedRank(n, want)) / float64(n)
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median is the lower median of v (0 for an empty sample).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return sortedCopy(v)[(len(v)-1)/2]
}

// pctMillis is the q-quantile of a duration sample in ms, with q
// lowered to what the sample supports (supportedRank).
func pctMillis(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	return msec(ranked(d, supportedRank(len(d), q)))
}

// ranked returns the element of 1-based rank in ascending order.
func ranked(d []time.Duration, rank int) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank-1]
}

func medianDuration(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return ranked(d, (len(d)+1)/2)
}

func nsPer(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(max(n, 1)) }
func micros(d time.Duration) float64       { return float64(d) / float64(time.Microsecond) }
func msec(d time.Duration) float64         { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is VmHWM of this process; the per-workload process model
// makes it the workload's own peak.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// resourceMark snapshots the counters a measured window is charged
// with.
type resourceMark struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	gcPause uint64
	gcNum   uint32
}

func markResources() resourceMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return resourceMark{
		at:      time.Now(),
		cpu:     cpuTime(),
		alloc:   ms.TotalAlloc,
		gcPause: ms.PauseTotalNs,
		gcNum:   ms.NumGC,
	}
}

// timeMedian runs fn reps times and returns the median duration.
func timeMedian(reps int, fn func()) time.Duration {
	d := make([]time.Duration, reps)
	for i := range d {
		t0 := time.Now()
		fn()
		d[i] = time.Since(t0)
	}
	return medianDuration(d)
}

// allocDuring returns the bytes allocated while fn ran.
func allocDuring(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.TotalAlloc - a.TotalAlloc
}
