package main

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun drives the command as a function. Parameters the generator
// cannot honour end it with exit status 1, where each used to panic,
// and Sscanf's tolerance of trailing junk is gone; a flag that does
// not parse is a usage error. A good query on a star of six dimensions
// reports one table built per non-root relation, all while measuring,
// and every one served; -trace adds the span tree.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		args      string
		code      int
		out, diag string // substrings of stdout and stderr
	}{
		{"-rows 0", 1, "", "-rows 0"},
		{"-m 1x,2", 1, "", "invalid syntax"},
		{"-m 0.5,1.5", 1, "", "(0, 1]"},
		{"-m 0,0.5", 1, "", "(0, 1]"},
		{"-fo 0.5,2", 1, "", "at least 1"},
		{"-fo 3,2", 1, "", "lo <= hi"},
		{"-shape ring", 1, "", `unknown shape "ring"`},
		{"-rows many", 2, "", `invalid value "many"`},
		{"-profile x", 2, "", "flag provided but not defined"},
		{"-rows 40 -shape star", 0, "tables built=6 served=6\n", ""},
		{"-rows 40 -shape star -trace", 0, "\ntrace:\n  query ", ""},
	} {
		t.Run(tc.args, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(strings.Fields(tc.args), &stdout, &stderr); code != tc.code {
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

// TestProfilesSurviveAFailedRun: a run that fails still leaves complete
// CPU and heap profiles, flushed by run's defers: each is a gzip
// stream that decompresses to its end.
func TestProfilesSurviveAFailedRun(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "heap.pprof")
	var stderr bytes.Buffer
	if code := run([]string{"-cpuprofile", cpu, "-memprofile", heap, "-rows", "0"}, io.Discard, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr.String())
	}
	for _, path := range []string{cpu, heap} {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		zr, err := gzip.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", filepath.Base(path), err)
		}
		if body, err := io.ReadAll(zr); err != nil || len(body) == 0 {
			t.Errorf("%s: %d bytes, %v", filepath.Base(path), len(body), err)
		}
	}
}
