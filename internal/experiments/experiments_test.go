package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"quick": Quick, "full": Full, "": Quick} {
		if s, err := ParseScale(in); err != nil || s != want {
			t.Errorf("ParseScale(%q) = %v, %v", in, s, err)
		}
	}
	if _, err := ParseScale("bogus"); err == nil {
		t.Errorf("expected error")
	}
}

func TestQuartiles(t *testing.T) {
	if lo, med, hi := quartiles([]float64{3, 1, 2}); lo != 1 || med != 2 || hi != 3 {
		t.Errorf("quartiles = %v %v %v", lo, med, hi)
	}
	if lo, med, hi := quartiles([]float64{5}); lo != 5 || med != 5 || hi != 5 {
		t.Errorf("singleton quartiles = %v %v %v", lo, med, hi)
	}
	if lo, _, _ := quartiles(nil); !math.IsNaN(lo) {
		t.Errorf("empty quartiles = %v, want NaN", lo)
	}
}

// TestRender pins the text form: aligned label and value columns, each
// column's verb, and an over-budget run spelled out.
func TestRender(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Labels:  []string{"query"},
		Columns: []Column{{"cost", ""}, {"ratio", "%.2f"}},
		Notes:   []string{"n"},
	}
	tbl.add([]string{"star"}, 1234.5, 0.5)
	tbl.add([]string{"a longer name"}, 0.25, math.NaN())
	var buf bytes.Buffer
	tbl.Render(&buf)
	want := strings.Join([]string{
		"== T ==",
		"  query          cost      ratio",
		"  -------------  --------  -------",
		"  star           1.23e+03  0.50",
		"  a longer name  0.250     timeout",
		"  note: n",
		"", "",
	}, "\n")
	if buf.String() != want {
		t.Errorf("rendered\n%s\nwant\n%s", buf.String(), want)
	}
}
