package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// resultFile is one full set: every workload's measured phase and
// traced pass, one value per metric, with what they were measured on.
type resultFile struct {
	HarnessVersion string                     `json:"harness_version"`
	GitCommit      string                     `json:"git_commit"`
	Workloads      map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Info      runInfo            `json:"info"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// setConfig describes a series of sets run through child processes.
type setConfig struct {
	seed    int64
	seconds float64
	scale   string
	out     string
	sets    int
	// varySeed gives set i the seed seed+i (the -spread protocol);
	// otherwise every set has the same seed and odd sets run the
	// workloads in reverse order (the -aa protocol).
	// Those runs are measured phases only.
	varySeed bool
}

// runChild runs one workload pass in a child process and parses the
// result object off the last line of its standard output.
func runChild(c setConfig, workload string, seed int64, trace int) (runOutput, runInfo, error) {
	exe, err := os.Executable()
	if err != nil {
		return runOutput{}, runInfo{}, err
	}
	cmd := exec.Command(exe,
		"--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(c.seconds), "--trace", fmt.Sprint(trace), "--scale", c.scale)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return runOutput{}, runInfo{}, fmt.Errorf("%s trace %d seed %d: %w", workload, trace, seed, err)
	}
	var info runInfo
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, infoPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &info); err != nil {
				return runOutput{}, runInfo{}, err
			}
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	var out runOutput
	if err := json.Unmarshal([]byte(last), &out); err != nil {
		return runOutput{}, runInfo{}, fmt.Errorf("%s trace %d: no result line: %w", workload, trace, err)
	}
	return out, info, nil
}

func values(m map[string]metricValue) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Value
	}
	return out
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runSets runs c.sets full sets, writes each to its own file when an
// output name is given, and prints the spread of every end-to-end
// metric across the sets when there is more than one.
func runSets(c setConfig) error {
	commit := gitCommit()
	var files []*resultFile
	for set := 0; set < c.sets; set++ {
		seed := c.seed
		if c.varySeed {
			seed += int64(set)
		}
		order := append([]workloadDef(nil), workloadDefs...)
		if !c.varySeed && set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		rf := &resultFile{HarnessVersion: harnessVersion, GitCommit: commit, Workloads: map[string]*workloadResult{}}
		for _, w := range order {
			fmt.Fprintf(os.Stderr, "set %d/%d seed %d: %s\n", set+1, c.sets, seed, w.Name)
			e2e, info, err := runChild(c, w.Name, seed, 0)
			if err != nil {
				return err
			}
			wr := &workloadResult{Info: info, Attempted: e2e.Attempted, Failed: e2e.Failed, EndToEnd: values(e2e.Metrics)}
			if !c.varySeed {
				layers, _, err := runChild(c, w.Name, seed, 1)
				if err != nil {
					return err
				}
				wr.Attempted += layers.Attempted
				wr.Failed += layers.Failed
				wr.PerLayer = values(layers.Metrics)
			}
			rf.Workloads[w.Name] = wr
		}
		files = append(files, rf)
		if c.out != "" {
			name := c.out
			if c.sets > 1 {
				name = fmt.Sprintf("%s_%c.json", strings.TrimSuffix(c.out, ".json"), 'a'+set)
			}
			if err := writeResultFile(name, rf); err != nil {
				return err
			}
		}
	}
	if c.sets == 1 {
		printSet(os.Stdout, files[0])
		return nil
	}
	if !printSpreads(os.Stdout, files) {
		return fmt.Errorf("at least one end-to-end metric spreads wider than its bound")
	}
	return nil
}

func writeResultFile(name string, rf *resultFile) error {
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(b, '\n'), 0o644)
}

func readResultFile(name string) (*resultFile, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &rf, nil
}

// printSet prints every metric of one set by name with its unit.
func printSet(w io.Writer, rf *resultFile) {
	for _, wd := range workloadDefs {
		wr := rf.Workloads[wd.Name]
		if wr == nil {
			continue
		}
		fmt.Fprintf(w, "== %s (seed %d, %d attempted, %d failed)\n", wd.Name, wr.Info.Seed, wr.Attempted, wr.Failed)
		for _, d := range endToEnd {
			fmt.Fprintf(w, "%-44s %16.6f %s\n", d.Name, wr.EndToEnd[d.Name], d.Unit)
		}
		for _, d := range perLayer {
			if v, ok := wr.PerLayer[d.Name]; ok {
				fmt.Fprintf(w, "%-44s %16.6f %s\n", d.Name, v, d.Unit)
			}
		}
	}
}

// quartiles are the first, second and third quartile of v as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which
// is what the benchmark driver's acceptance rule uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spreadOf is the interquartile range of v as a share of its median.
func spreadOf(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// printSpreads prints, per workload and end-to-end metric, the median,
// quartiles and spread across the sets, and whether the spread is
// inside the metric's bound. It reports whether all were.
func printSpreads(w io.Writer, files []*resultFile) bool {
	allInside := true
	fmt.Fprintf(w, "%-22s %-28s %14s %14s %14s %8s %7s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, wd := range workloadDefs {
		for _, d := range endToEnd {
			var v []float64
			for _, rf := range files {
				if wr := rf.Workloads[wd.Name]; wr != nil {
					v = append(v, wr.EndToEnd[d.Name])
				}
			}
			q1, q2, q3 := quartiles(v)
			sp := spreadOf(v)
			verdict := "inside"
			switch {
			case d.Name == "setup_s":
				verdict = "exempt"
			case sp > d.Bound:
				verdict = "OUTSIDE"
				allInside = false
			case sp > d.Bound/3:
				verdict = "inside, above a third"
			}
			fmt.Fprintf(w, "%-22s %-28s %14.4f %14.4f %14.4f %7.2f%% %6.1f%%  %s\n",
				wd.Name, d.Name, q1, q2, q3, 100*sp, 100*d.Bound, verdict)
		}
	}
	return allInside
}
