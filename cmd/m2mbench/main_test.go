package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"m2mjoin/internal/experiments"
)

// TestRun drives the command as a function: one cheap real figure and
// every way of failing to name one.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		out, diag string // substrings of stdout and stderr
	}{
		{"one cheap figure", []string{"-seed", "7", "fig13"}, 0, "== Fig 13:", ""},
		{"unknown figure", []string{"fig99"}, 2, "", `unknown figure "fig99"`},
		{"bad scale", []string{"-scale", "huge", "fig13"}, 2, "", `unknown scale "huge"`},
		{"missing argument", nil, 2, "", "usage: m2mbench"},
		{"removed flag", []string{"-cpuprofile", "x", "fig13"}, 2, "", "flag provided but not defined"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), tc.out) || !strings.Contains(stderr.String(), tc.diag) {
				t.Errorf("stdout %q / stderr %q lack %q / %q", stdout.String(), stderr.String(), tc.out, tc.diag)
			}
			if tc.code != 0 && stdout.Len() > 0 {
				t.Errorf("stdout on a failed run: %q", stdout.String())
			}
		})
	}
}

// TestAllFollowsTheRegistry: `all` runs exactly experiments.Figures, in
// its order, with the flags passed down. The registry is swapped for
// stubs so tier-1 executes no figure a second time for this.
func TestAllFollowsTheRegistry(t *testing.T) {
	defer func(saved []experiments.Figure) { experiments.Figures = saved }(experiments.Figures)
	var calls []string
	stub := func(name string) experiments.Figure {
		return experiments.Figure{Name: name, Run: func(scale experiments.Scale, seed int64, workers int) *experiments.Table {
			calls = append(calls, fmt.Sprintf("%s scale=%d seed=%d workers=%d", name, scale, seed, workers))
			return &experiments.Table{Title: name}
		}}
	}
	experiments.Figures = []experiments.Figure{stub("figB"), stub("figA")}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "full", "-seed", "9", "-parallelism", "3", "all"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	want := []string{"figB scale=1 seed=9 workers=3", "figA scale=1 seed=9 workers=3"}
	if strings.Join(calls, "; ") != strings.Join(want, "; ") {
		t.Errorf("ran %v, want %v", calls, want)
	}
	if b, a := strings.Index(stdout.String(), "== figB =="), strings.Index(stdout.String(), "== figA =="); b < 0 || a < b {
		t.Errorf("tables out of registry order:\n%s", stdout.String())
	}
}
