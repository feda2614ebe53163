// Package experiments contains one reproduction harness per figure of
// the paper's evaluation (Section 5) plus the earlier analysis figures
// (Fig. 4, Fig. 6). Each FigN function runs the corresponding
// experiment at a configurable scale and returns a Table with the same
// rows/series the paper plots; cmd/m2mbench renders them and
// bench_test.go wraps them in testing.B benchmarks.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"m2mjoin/internal/cost"
	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/storage"
)

// Table is a rendered experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Scale selects experiment sizes. Quick keeps everything under a few
// seconds for tests and CI; Full approaches the paper's scales.
type Scale int

const (
	// Quick is a reduced-size run for tests and benchmarks.
	Quick Scale = iota
	// Full approximates the paper's experiment sizes.
	Full
)

// ParseScale maps a string flag to a Scale.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "quick", "":
		return Quick, nil
	case "full":
		return Full, nil
	default:
		return Quick, fmt.Errorf("unknown scale %q (want quick or full)", s)
	}
}

// measured holds one timed strategy execution.
type measured struct {
	stats    exec.Stats
	elapsed  time.Duration
	weighted float64
	timedOut bool
}

// runBudget caps the predicted weighted cost of a single run; runs
// predicted to exceed it are reported as timeouts, mirroring the
// paper's timed-out STD data points.
const (
	quickBudget = 5e7
	fullBudget  = 2e9
)

func budgetFor(s Scale) float64 {
	if s == Full {
		return fullBudget
	}
	return quickBudget
}

// Parallelism is the probe-worker count every harness passes to the
// executor (0/1 sequential, negative uses GOMAXPROCS). It is a
// package-level knob — cmd/m2mbench sets it from -parallelism before
// running figures — because the FigN signatures are part of the
// benchmark harness contract. Probe counters and checksums are
// identical at any setting; only wall-clock times change.
var Parallelism int

// runStrategy executes one strategy and returns timing plus stats, or
// a timeout marker when the cost model predicts the run would exceed
// the budget.
func runStrategy(ds *storage.Dataset, model *cost.Model, s cost.Strategy,
	order plan.Order, flat bool, budget float64) measured {

	predicted := model.Cost(s, order, flat).Total * float64(ds.Relation(plan.Root).NumRows())
	if predicted > budget {
		return measured{timedOut: true}
	}
	start := time.Now()
	stats, err := exec.Run(ds, exec.Options{
		Strategy: s, Order: order, FlatOutput: flat, Parallelism: Parallelism,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: execution failed: %v", err))
	}
	return measured{
		stats:    stats,
		elapsed:  time.Since(start),
		weighted: stats.WeightedCost(model.Weights()),
	}
}

// relCost returns the weighted-probe-cost ratio of m to the baseline
// (hash probes + 1/2 filter/semi-join probes + 1/14 expanded tuples) —
// the paper's abstract cost metric. Unlike wall-clock it is exact and
// hardware-independent, which matters at the reduced quick scale where
// sub-millisecond runs drown in scheduler noise; Fig. 14 establishes
// that this metric tracks wall-clock tightly at full scale.
func relCost(m, baseline measured) (float64, bool) {
	if m.timedOut || baseline.weighted <= 0 {
		return 0, false
	}
	return m.weighted / baseline.weighted, true
}

// relCostStr formats relCost.
func relCostStr(m, baseline measured) string {
	r, ok := relCost(m, baseline)
	if !ok {
		return "timeout"
	}
	return fmt.Sprintf("%.2f", r)
}

// randomOrder draws a uniformly random valid left-deep order by
// repeatedly picking from the frontier.
func randomOrder(t *plan.Tree, rng *rand.Rand) plan.Order {
	done := plan.SetOf(plan.Root)
	var o plan.Order
	for len(o) < t.Len()-1 {
		f := t.Frontier(done).IDs()
		pick := f[rng.Intn(len(f))]
		o = append(o, pick)
		done = done.With(pick)
	}
	return o
}

// fmtF renders a float compactly.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000 || v < 0.01:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// quartiles returns min, median, and max of a non-empty slice.
func quartiles(vals []float64) (lo, med, hi float64) {
	sorted := append([]float64(nil), vals...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
}
