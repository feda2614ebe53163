package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
)

// rows returns tbl's rows whose labels match want, "" matching any.
func rows(tbl *Table, want ...string) []Row {
	var out []Row
	for _, r := range tbl.Rows {
		ok := true
		for i, w := range want {
			ok = ok && (w == "" || r.Labels[i] == w)
		}
		if ok {
			out = append(out, r)
		}
	}
	return out
}

// v returns row r's value in the named column.
func (t *Table) v(r Row, col string) float64 {
	i := slices.IndexFunc(t.Columns, func(c Column) bool { return c.Name == col })
	if i < 0 {
		panic("no column " + col)
	}
	return r.Values[i]
}

// one returns the named value of the single row matching labels.
func (t *Table) one(col string, labels ...string) float64 {
	rs := rows(t, labels...)
	if len(rs) != 1 {
		panic("labels " + strings.Join(labels, ",") + " do not select one row")
	}
	return t.v(rs[0], col)
}

// TestPaperClaims runs every figure of Figures once per seed at quick
// scale — the figures that only evaluate the model on seeds 1-3, the
// ones that execute queries on seed 1 — and asserts, on the typed
// values, the table's structure and the statements of the paper the
// figure reproduces, each with its tolerance in the row. Claims are on
// counters and costs, never on time. Per-strategy model-vs-executor
// q-error is core.TestModelMatchesExecutor's job.
func TestPaperClaims(t *testing.T) {
	analytic := []string{"fig4", "fig6", "fig10", "fig13"}
	claims := []struct {
		fig, paper string
		tol        float64
		check      func(t *testing.T, tbl *Table, tol float64) // of each seed's table
		across     func(t *testing.T, seeds []*Table)          // of all seeds' tables together
	}{
		{"fig4", "Sec. 3.2: the naive estimator degrades sharply on low-m queries; a 0.1% sample is at least tol x closer",
			5, func(t *testing.T, tbl *Table, tol float64) {
				naive, s01 := tbl.one("avg Q-err (m)", "Naive", "m < 0.05"), tbl.one("avg Q-err (m)", "0.1%", "m < 0.05")
				if s1 := tbl.one("avg Q-err (m)", "1%", "m < 0.05"); naive < tol*s01 || s1 > s01 {
					t.Errorf("low-m Q-error: naive %v, 0.1%% sample %v, 1%% sample %v", naive, s01, s1)
				}
			}, nil},
		{"fig4", "Sec. 3.2: samples of 0.5% and more stay near Q-error 1-2 (m-q-error <= tol)",
			2.5, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range slices.Concat(rows(tbl, "0.5%"), rows(tbl, "1%")) {
					if q := tbl.v(r, "avg Q-err (m)"); q > tol {
						t.Errorf("%v: m-q-error %v > %v", r.Labels, q, tol)
					}
				}
			}, nil},
		{"fig6", "Sec. 3.7: under high estimation error the match-probability model regresses at most tol x the selectivity model, cell by cell; under low error no more in total",
			0.5, func(t *testing.T, tbl *Table, tol float64) {
				const sel, mp = "mean % (selectivity model)", "mean % (match-prob model)"
				for _, r := range rows(tbl, "[0.90-0.95]") {
					if tbl.v(r, mp) > tol*tbl.v(r, sel) {
						t.Errorf("%v: match-prob %v > %v x selectivity %v", r.Labels, tbl.v(r, mp), tol, tbl.v(r, sel))
					}
				}
				var sumSel, sumMP float64
				for _, r := range rows(tbl, "[0.15-0.20]") {
					sumSel, sumMP = sumSel+tbl.v(r, sel), sumMP+tbl.v(r, mp)
				}
				if sumMP > sumSel {
					t.Errorf("low-error cells: match-prob sum %v > selectivity sum %v", sumMP, sumSel)
				}
			}, nil},
		{"fig6", "seeds are independent: no cell of one seed reappears at another (cells draw their seeds from the figure's one stream)",
			0, nil, func(t *testing.T, tbls []*Table) {
				seen := map[float64]int{}
				for seed, tbl := range tbls {
					for _, r := range tbl.Rows {
						for _, v := range r.Values {
							if prev, dup := seen[v]; dup && prev != seed && v != 0 {
								t.Errorf("value %v of seed %d reappears at seed %d", v, prev+1, seed+1)
							}
							seen[v] = seed
						}
					}
				}
			}},
		{"fig10", "Sec. 5.1: survival probability is closest to the optimum (mean ratio <= tol), result size next, rank ordering worst; no heuristic beats the exhaustive search",
			1.03, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range tbl.Rows {
					if slices.Min(r.Values) < 1-1e-9 {
						t.Errorf("%v: ratio below the optimum: %v", r.Labels, r.Values)
					}
				}
				for _, r := range rows(tbl, "", "rank ordering") {
					m := r.Labels[0]
					rank, size, surv := tbl.v(r, "mean"), tbl.one("mean", m, "greedy result size"), tbl.one("mean", m, "greedy survival prob")
					if surv > size || size > rank || surv > tol {
						t.Errorf("m %s: mean ratios survival %v, result size %v, rank %v", m, surv, size, rank)
					}
				}
			}, nil},
		{"fig11", "Sec. 5.2: COM variants dominate their STD twins in every query, and at m in [0.5, 0.9] STD costs at least tol x COM",
			2, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range tbl.Rows {
					std := tbl.v(r, "STD")
					if std < 1 || tbl.v(r, "BVP+STD") < tbl.v(r, "BVP+COM") || tbl.v(r, "SJ+STD") < tbl.v(r, "SJ+COM") {
						t.Errorf("%v: a STD variant beats its COM twin: %v", r.Labels, r.Values)
					}
					if r.Labels[1] == "[0.50-0.90]" && std < tol {
						t.Errorf("%v: STD/COM %v < %v", r.Labels, std, tol)
					}
				}
			}, nil},
		{"fig12", "Sec. 5.3: COM outperforms STD on the CE datasets (median STD/COM > tol, both output forms)",
			1, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range rows(tbl, "", "", "STD") {
					if med := tbl.v(r, "median"); !(med > tol) {
						t.Errorf("%v: median STD/COM %v", r.Labels, med)
					}
				}
			}, nil},
		{"fig13", "Sec. 5.4: STD variants are competitive at low m (BVP+STD within tol of BVP+COM at m = 0.1)",
			0.02, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range rows(tbl, "", "", "0.1") {
					if std, com := tbl.v(r, "BVP+STD"), tbl.v(r, "BVP+COM"); math.Abs(std-com) > tol*com {
						t.Errorf("%v: BVP+STD %v vs BVP+COM %v", r.Labels, std, com)
					}
				}
			}, nil},
		{"fig13", "Sec. 5.4: the gap to COM grows rapidly with m (every reduced STD variant >= tol x its COM twin at m = 0.9)",
			3, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range rows(tbl, "", "", "0.9") {
					if tbl.v(r, "BVP+STD") < tol*tbl.v(r, "BVP+COM") || tbl.v(r, "SJ+STD") < tol*tbl.v(r, "SJ+COM") {
						t.Errorf("%v: a STD variant within %v x of its COM twin: %v", r.Labels, tol, r.Values)
					}
				}
			}, nil},
		{"fig13", "Sec. 5.4: BVP+COM wins at low m (BVP+COM/COM < tol for m <= 0.3), plain COM at m = 0.9 where filters stop helping (>= tol)",
			1, func(t *testing.T, tbl *Table, tol float64) {
				for _, m := range []string{"0.1", "0.2", "0.3", "0.9"} {
					for _, r := range rows(tbl, "", "", m) {
						if ratio := tbl.v(r, "BVP+COM") / tbl.v(r, "COM"); (ratio < tol) != (m != "0.9") {
							t.Errorf("%v: BVP+COM/COM = %v", r.Labels, ratio)
						}
					}
				}
			}, nil},
		{"fig14", "Sec. 5.5: predicted cost aligns tightly with execution across shapes and orders (correlation with counted cost >= tol)",
			0.99, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range tbl.Rows {
					if corr := tbl.v(r, "corr(pred, probes)"); corr < tol {
						t.Errorf("%v: corr(pred, counted) %v", r.Labels, corr)
					}
				}
			}, nil},
		{"fig14", "Sec. 5.5: ... and in level, not only in rank (mean |predicted - counted| <= tol % over the random orders)",
			5, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range tbl.Rows {
					if err := tbl.v(r, "mean |probe err|"); err > tol {
						t.Errorf("%v: mean |error| %v%%", r.Labels, err)
					}
				}
			}, nil},
		{"fig15", "Sec. 5.6: the constant-fanout estimate tracks counted hash probes at any fanout variance (ratio within tol of 1)",
			0.2, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range tbl.Rows {
					if ratio := tbl.v(r, "probe ratio"); math.Abs(ratio-1) > tol {
						t.Errorf("%v: counted/estimated probes %v", r.Labels, ratio)
					}
				}
			}, nil},
		{"fig16", "Theorem 3.5: SJ+COM costs the same under every join order (min/worst >= tol)",
			0.99, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range rows(tbl, "", "SJ+COM") {
					if lo := tbl.v(r, "min"); lo < tol {
						t.Errorf("%v: min/worst %v", r.Labels, lo)
					}
				}
			}, nil},
		{"fig16", "Sec. 5.7: COM improves robustness: each reduced COM variant's box is at least as tight as its STD twin's, and plain COM's worst-minus-best spread is at most tol x STD's",
			1.1, func(t *testing.T, tbl *Table, tol float64) {
				for _, r := range rows(tbl, "", "COM") {
					q := r.Labels[0]
					if tbl.one("min", q, "BVP+COM") < tbl.one("min", q, "BVP+STD") || tbl.one("min", q, "SJ+COM") < tbl.one("min", q, "SJ+STD") {
						t.Errorf("%s: a reduced STD variant has the tighter box", q)
					}
					if com, std := tbl.v(r, "spread"), tbl.one("spread", q, "STD"); com > tol*std {
						t.Errorf("%s: COM spread %v > %v x STD spread %v", q, com, tol, std)
					}
				}
			}, nil},
	}

	for _, f := range Figures {
		t.Run(f.Name, func(t *testing.T) {
			t.Parallel()
			seeds := []int64{1}
			if slices.Contains(analytic, f.Name) {
				seeds = []int64{1, 2, 3}
			}
			var tbls []*Table
			for _, seed := range seeds {
				tbl := f.Run(Quick, seed, 1)
				tbls = append(tbls, tbl)
				var buf bytes.Buffer
				tbl.Render(&buf)
				if tbl.Title == "" || len(tbl.Rows) == 0 || !strings.Contains(buf.String(), tbl.Title) {
					t.Fatalf("seed %d: empty or unrendered table", seed)
				}
				for _, r := range tbl.Rows {
					if len(r.Labels) != len(tbl.Labels) || len(r.Values) != len(tbl.Columns) {
						t.Fatalf("seed %d: row %v does not fit header %v %v", seed, r, tbl.Labels, tbl.Columns)
					}
					if slices.ContainsFunc(r.Values, math.IsNaN) {
						t.Errorf("seed %d: row %v has an over-budget run at quick scale", seed, r)
					}
				}
			}
			claimed := false
			for _, c := range claims {
				if c.fig == f.Name {
					claimed = true
					if c.across != nil {
						c.across(t, tbls)
					}
					for _, tbl := range tbls {
						if c.check != nil {
							c.check(t, tbl, c.tol)
						}
					}
				}
			}
			if !claimed {
				t.Errorf("no claim row for %s", f.Name)
			}
		})
	}
}
