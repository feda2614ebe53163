package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"
)

// TestGenRejectsBadParameters: parameters the generator cannot honour
// end the command with exit status 1, where each used to panic, and
// Sscanf's tolerance of trailing junk is gone.
func TestGenRejectsBadParameters(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // stderr substring
	}{
		{[]string{"-rows", "0"}, "-rows 0"},
		{[]string{"-rows", "-5"}, "-rows -5"},
		{[]string{"-m", "0.5,1.5"}, "(0, 1]"},
		{[]string{"-m", "0,0.5"}, "(0, 1]"},
		{[]string{"-m", "1x,2"}, "invalid syntax"},
		{[]string{"-m", "0.6,0.2"}, "lo <= hi"},
		{[]string{"-fo", "0.5,2"}, "at least 1"},
		{[]string{"-fo", "1"}, "want lo,hi"},
	} {
		var stderr bytes.Buffer
		code := run(append([]string{"gen", "-out", t.TempDir()}, tc.args...), io.Discard, &stderr)
		if code != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("gen %v: exit %d, stderr %q; want 1 and %q", tc.args, code, stderr.String(), tc.want)
		}
	}
	if code := run([]string{"gen", "-out", t.TempDir(), "-rows", "20", "-m", "1,1", "-fo", "1,1"}, io.Discard, io.Discard); code != 0 {
		t.Errorf("gen at the domain's edges: exit %d", code)
	}
}

// TestRun drives every subcommand as a function on one generated
// directory, and every way of failing to name one.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		name      string
		args      []string
		code      int
		out, diag string // substrings of stdout and stderr
	}{
		{"gen", []string{"gen", "-out", dir, "-shape", "star", "-rows", "300"}, 0, "wrote 7 relations", ""},
		{"info", []string{"info", "-dir", dir}, 0, "\n0    R1           -               300", ""},
		{"verify", []string{"verify", "-dir", dir}, 0, "\nR7    ", ""},
		{"mutate", []string{"mutate", "-dir", dir, "-batches", "2", "-out", filepath.Join(dir, "v2")}, 0, "wrote live view of v2", ""},
		{"missing dir", []string{"info"}, 1, "", "-dir is required"},
		{"no dataset", []string{"verify", "-dir", filepath.Join(dir, "absent")}, 1, "", "m2mdata: "},
		{"no subcommand", nil, 2, "", "usage:"},
		{"unknown subcommand", []string{"drop"}, 2, "", "usage:"},
		{"bad flag", []string{"mutate", "-batches", "some"}, 2, "", `invalid value "some"`},
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

// TestMutateReplaysIdenticalChain: the same seeded delta stream
// replayed against the same saved dataset walks the identical
// (version, fingerprint) chain, the v0 base plus one line per batch,
// which is what lets replicas agree on a dataset's identity without
// exchanging data.
func TestMutateReplaysIdenticalChain(t *testing.T) {
	dir := t.TempDir()
	if code := run([]string{"gen", "-out", dir, "-shape", "snowflake32", "-rows", "500", "-seed", "7"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("gen: exit %d", code)
	}
	var chains [2]string
	for i := range chains {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"mutate", "-dir", dir, "-batches", "6", "-seed", "3"}, &stdout, &stderr); code != 0 {
			t.Fatalf("replay %d: exit %d: %s", i, code, stderr.String())
		}
		for _, line := range strings.SplitAfter(stdout.String(), "\n") {
			if strings.HasPrefix(line, "v") {
				chains[i] += line
			}
		}
	}
	if chains[0] != chains[1] {
		t.Fatalf("replayed mutation stream diverged:\n%s---\n%s", chains[0], chains[1])
	}
	if n := strings.Count(chains[0], "\n"); n != 7 || !strings.HasPrefix(chains[0], "v0 ") || !strings.Contains(chains[0], "\nv6 ") {
		t.Fatalf("want the v0 base and 6 committed versions, got %d lines:\n%s", n, chains[0])
	}
}
