package main

import (
	"fmt"
	"io"
	"reflect"
	"strings"
)

// Verdicts of one (workload, end-to-end metric) comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// minSpreadSamples is the sample count per side from which the sides'
// own spread is taken as the noise; below it the metric's bound is.
const minSpreadSamples = 4

// compareRow is one line of the comparison table.
type compareRow struct {
	Old, New   float64 // medians
	NOld, NNew int
	// Worse is the change in the metric's bad direction as a share of
	// the old median; negative is better.
	Worse   float64
	Spread  float64
	Verdict string
}

// judge compares the samples of one metric. A spread wider than the
// bound means the samples cannot tell a change of that size from
// noise: unresolved, never unchanged. A gain counts only when it is
// larger than the noise.
func judge(old, new []float64, d metricDef) compareRow {
	_, mo, _ := quartiles(old)
	_, mn, _ := quartiles(new)
	r := compareRow{Old: mo, New: mn, NOld: len(old), NNew: len(new)}
	if mo != 0 {
		r.Worse = (mn - mo) / mo
		if d.Better == "higher" {
			r.Worse = -r.Worse
		}
	}
	noise := d.Bound
	if len(old) >= minSpreadSamples && len(new) >= minSpreadSamples {
		r.Spread = max(spreadOf(old), spreadOf(new))
		noise = r.Spread
	}
	switch {
	case r.Spread > d.Bound:
		r.Verdict = unresolved
	case r.Worse > d.Bound:
		r.Verdict = regressed
	case -r.Worse > noise:
		r.Verdict = improved
	default:
		r.Verdict = unchanged
	}
	return r
}

// inputsDiffer reports why two runs' inputs differ, or "" when results
// on them may be compared.
func inputsDiffer(a, b runInfo) string {
	switch {
	case a.HarnessVersion != b.HarnessVersion:
		return fmt.Sprintf("harness version %q vs %q", a.HarnessVersion, b.HarnessVersion)
	case a.Seed != b.Seed:
		return fmt.Sprintf("seed %d vs %d", a.Seed, b.Seed)
	case a.Scale != b.Scale || a.Seconds != b.Seconds || a.Clients != b.Clients:
		return fmt.Sprintf("workload parameters (scale %s, %v s, %d clients) vs (scale %s, %v s, %d clients)",
			a.Scale, a.Seconds, a.Clients, b.Scale, b.Seconds, b.Clients)
	case !reflect.DeepEqual(a.Fingerprints, b.Fingerprints):
		return fmt.Sprintf("dataset fingerprints %v vs %v", a.Fingerprints, b.Fingerprints)
	case !reflect.DeepEqual(a.Rows, b.Rows):
		return fmt.Sprintf("row counts %v vs %v", a.Rows, b.Rows)
	}
	return ""
}

// loadSide reads a comma-separated list of result files measured on
// the same inputs and gathers their samples per workload and metric.
func loadSide(arg string) (map[string]runInfo, map[string]map[string][]float64, error) {
	infos := map[string]runInfo{}
	samples := map[string]map[string][]float64{}
	for _, name := range strings.Split(arg, ",") {
		rf, err := readResultFile(name)
		if err != nil {
			return nil, nil, err
		}
		for w, wr := range rf.Workloads {
			if prev, ok := infos[w]; ok {
				if why := inputsDiffer(prev, wr.Info); why != "" {
					return nil, nil, fmt.Errorf("%s: %s differs from the files before it: %s", name, w, why)
				}
			} else {
				infos[w] = wr.Info
				samples[w] = map[string][]float64{}
			}
			for m, v := range wr.EndToEnd {
				samples[w][m] = append(samples[w][m], v)
			}
		}
	}
	return infos, samples, nil
}

// compareFiles prints one row per (workload, end-to-end metric) and
// reports whether nothing regressed. It refuses inputs that differ.
func compareFiles(w io.Writer, oldArg, newArg string) (bool, error) {
	oldInfo, oldS, err := loadSide(oldArg)
	if err != nil {
		return false, err
	}
	newInfo, newS, err := loadSide(newArg)
	if err != nil {
		return false, err
	}
	for _, wd := range workloadDefs {
		a, okA := oldInfo[wd.Name]
		b, okB := newInfo[wd.Name]
		if okA != okB {
			return false, fmt.Errorf("refusing to compare: %s is in one side only", wd.Name)
		}
		if !okA {
			continue
		}
		if why := inputsDiffer(a, b); why != "" {
			return false, fmt.Errorf("refusing to compare %s: %s", wd.Name, why)
		}
	}
	ok := true
	fmt.Fprintf(w, "%-22s %-28s %16s %16s %24s %7s %8s  %s\n",
		"workload", "metric", "old median (n)", "new median (n)", "worse by (of old)", "bound", "spread", "verdict")
	for _, wd := range workloadDefs {
		if _, has := oldInfo[wd.Name]; !has {
			continue
		}
		for _, d := range endToEnd {
			r := judge(oldS[wd.Name][d.Name], newS[wd.Name][d.Name], d)
			if r.Verdict == regressed {
				ok = false
			}
			fmt.Fprintf(w, "%-22s %-28s %12.4f (%d) %12.4f (%d) %+9.2f%% of %-11.4f %6.1f%% %7.2f%%  %s\n",
				wd.Name, d.Name, r.Old, r.NOld, r.New, r.NNew, 100*r.Worse, r.Old, 100*d.Bound, 100*r.Spread, r.Verdict)
		}
	}
	return ok, nil
}
