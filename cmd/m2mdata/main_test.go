package main

import (
	"strings"
	"testing"
)

// TestGenRejectsBadParameters: parameters the generator cannot honour
// are errors — main exits 1 on them — where each used to panic, and
// Sscanf's tolerance of trailing junk is gone.
func TestGenRejectsBadParameters(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // error substring
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
		err := runGen(append([]string{"-out", t.TempDir()}, tc.args...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("gen %v: error %v, want one mentioning %q", tc.args, err, tc.want)
		}
	}
	if err := runGen([]string{"-out", t.TempDir(), "-rows", "20", "-m", "1,1", "-fo", "1,1"}); err != nil {
		t.Errorf("gen at the domain's edges: %v", err)
	}
}
