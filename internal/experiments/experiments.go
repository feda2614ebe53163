// Package experiments reproduces the paper's evaluation (Section 5)
// and its two analysis figures (Fig. 4, Fig. 6). A figure is data: an
// entry of Figures whose Run returns a typed Table — label columns plus
// named numeric columns — which cmd/m2mbench renders and
// TestPaperClaims checks against the paper's statements. Figures is the
// only list of figures; the figures that execute queries (11, 12, 14,
// 15, 16) are a case list and a fold over the one sweep.
package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"m2mjoin/internal/plan"
)

// Figure is one figure of the paper: Run regenerates it at a scale from
// one seed, executing queries (if it executes any) on the given number
// of probe workers (0 or 1 sequential, negative GOMAXPROCS). Counters
// and costs are identical at any worker count.
type Figure struct {
	Name, Desc string
	Run        func(scale Scale, seed int64, workers int) *Table
}

// Figures lists every reproduced figure in the paper's order.
var Figures = []Figure{
	{"fig4", "sampling-based match probability / fanout estimation (Q-error)", fig4},
	{"fig6", "cost-model robustness to estimation errors (10-rel star)", fig6},
	{"fig10", "join-order heuristics vs exhaustive optimal", fig10},
	{"fig11", "synthetic benchmark: six strategies, four query shapes", fig11},
	{"fig12", "CE benchmark (simulated datasets): six strategies", fig12},
	{"fig13", "analytic simulation: cost vs match probability", fig13},
	{"fig14", "cost-model validation: predicted vs actual", fig14},
	{"fig15", "constant-fanout assumption under skew", fig15},
	{"fig16", "robustness to random join orders", fig16},
}

// Table is a figure's result. Every row has one label per entry of
// Labels and one value per entry of Columns; a NaN value is a run the
// cost model predicted over the budget, which was not executed.
type Table struct {
	Title   string
	Labels  []string
	Columns []Column
	Rows    []Row
	Notes   []string
}

// Column names a numeric column and the fmt verb its cells are rendered
// with ("" for the compact default).
type Column struct{ Name, Verb string }

// Row is one table row.
type Row struct {
	Labels []string
	Values []float64
}

// columns returns one Column per name, all rendered with verb.
func columns(verb string, names ...string) []Column {
	cols := make([]Column, len(names))
	for i, n := range names {
		cols[i] = Column{n, verb}
	}
	return cols
}

func (t *Table) add(labels []string, values ...float64) {
	t.Rows = append(t.Rows, Row{labels, values})
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	header := slices.Clone(t.Labels)
	for _, c := range t.Columns {
		header = append(header, c.Name)
	}
	cells := [][]string{header, nil}
	for _, r := range t.Rows {
		row := slices.Clone(r.Labels)
		for i, v := range r.Values {
			switch verb := t.Columns[i].Verb; {
			case math.IsNaN(v):
				row = append(row, "timeout")
			case verb == "":
				row = append(row, fmtF(v))
			default:
				row = append(row, fmt.Sprintf(verb, v))
			}
		}
		cells = append(cells, row)
	}
	widths := make([]int, len(header))
	for _, row := range cells {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	cells[1] = make([]string, len(header))
	for i, w := range widths {
		cells[1][i] = strings.Repeat("-", w)
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	for _, row := range cells {
		for i, c := range row {
			row[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(row, "  "), " "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
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

// Scale selects experiment sizes. Quick keeps every figure to a few
// seconds for tests and CI; Full approaches the paper's scales.
type Scale int

const (
	// Quick is a reduced-size run for tests and CI.
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

// shape is one of the paper's four synthetic query shapes (Section 5.2).
type shape struct {
	name  string
	build func(plan.StatsSource) *plan.Tree
}

// shapes returns the four shapes at a scale: plan.ShapeByName's, except
// that Full runs the paper's 11-relation path and Quick a 4-dimension
// star, the two sizes ShapeByName does not name.
func shapes(scale Scale) []shape {
	named := func(label, name string) shape {
		return shape{label, func(src plan.StatsSource) *plan.Tree {
			tr, err := plan.ShapeByName(name, src)
			if err != nil {
				panic(err) // the names below are ShapeByName's own
			}
			return tr
		}}
	}
	star, path := named("7-rel star", "star"), named("7-rel path", "path")
	if scale == Quick {
		star = shape{"5-rel star", func(src plan.StatsSource) *plan.Tree { return plan.Star(4, src) }}
	} else {
		path = shape{"11-rel path", func(src plan.StatsSource) *plan.Tree { return plan.CenteredPath(11, src) }}
	}
	return []shape{star, path, named("3-2 snowflake", "snowflake32"), named("5-1 snowflake", "snowflake51")}
}

// rangeLabel renders a statistics range the way every figure labels it.
func rangeLabel(lo, hi float64) string { return fmt.Sprintf("[%.2f-%.2f]", lo, hi) }

// mean returns the arithmetic mean of vals.
func mean(vals []float64) float64 {
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartiles returns min, median, and max of vals, NaN when it is empty.
func quartiles(vals []float64) (lo, med, hi float64) {
	if len(vals) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return sorted[0], sorted[len(sorted)/2], sorted[len(sorted)-1]
}
