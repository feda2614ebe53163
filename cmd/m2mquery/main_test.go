package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main itself when M2MQUERY_ARGS is set, so a test can
// observe the command's exit status in a child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("M2MQUERY_ARGS"); ok {
		os.Args = append([]string{"m2mquery"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsBadParameters: parameters the generator cannot honour end
// the command with an error and exit status 1, where each used to panic
// (exit status 2), and Sscanf's tolerance of trailing junk is gone.
func TestRejectsBadParameters(t *testing.T) {
	for _, tc := range []struct {
		args string
		want string // stderr substring
	}{
		{"-rows 0", "-rows 0"},
		{"-m 1x,2", "invalid syntax"},
		{"-m 0.5,1.5", "(0, 1]"},
		{"-m 0,0.5", "(0, 1]"},
		{"-fo 0.5,2", "at least 1"},
		{"-fo 3,2", "lo <= hi"},
		{"-rows 40 -shape star", ""},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "M2MQUERY_ARGS="+tc.args)
		var stderr strings.Builder
		cmd.Stderr = &stderr
		err := cmd.Run()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v: %s", tc.args, err, stderr.String())
			}
			continue
		}
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: %v, stderr %q; want exit status 1 and %q", tc.args, err, stderr.String(), tc.want)
		}
	}
}
