package workload

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestNamedIsTheBenchmarksData: at the benchmark harness's full-scale
// driver rows and seeds, every dataset of the table generates the very
// data whose fingerprint the committed seed-1 result file pins
// (info.fingerprints of each workload in
// benchmark/results/aa_seed1_a.json), so the table and the benchmark
// define the same workloads bit for bit.
func TestNamedIsTheBenchmarksData(t *testing.T) {
	raw, err := os.ReadFile("../../benchmark/results/aa_seed1_a.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads map[string]struct {
			Info struct {
				Seed         int64             `json:"seed"`
				Scale        string            `json:"scale"`
				Fingerprints map[string]string `json:"fingerprints"`
			} `json:"info"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	// The harness's full scale: an ad-hoc dataset's driver rows at the
	// run's seed, and the serve mix's three at seed*100+1..3.
	full := map[string]struct {
		rows int
		seed int64
	}{
		"blowup":      {55000, 1},
		"selective":   {200000, 1},
		"snowflake32": {20000, 101},
		"star":        {20000, 102},
		"path":        {20000, 103},
	}
	got := map[string]string{}
	for w, res := range file.Workloads {
		if res.Info.Seed != 1 || res.Info.Scale != "full" {
			t.Fatalf("%s: seed %d at scale %q, want seed 1 at full scale", w, res.Info.Seed, res.Info.Scale)
		}
		for name, want := range res.Info.Fingerprints {
			if _, done := got[name]; !done {
				sc, ok := full[name]
				if !ok {
					t.Fatalf("%s: dataset %q is not in the table", w, name)
				}
				tree, err := Named(name)
				if err != nil {
					t.Fatal(err)
				}
				ds := Generate(tree, Config{DriverRows: sc.rows, Seed: sc.seed})
				got[name] = fmt.Sprintf("%016x", ds.Fingerprint())
			}
			if got[name] != want {
				t.Errorf("%s: %s generates fingerprint %s, the benchmark pins %s", w, name, got[name], want)
			}
		}
	}
	if len(got) != len(full) {
		t.Errorf("the result file pins %d of the table's %d datasets", len(got), len(full))
	}
	if _, err := Named("snowflake51"); err == nil {
		t.Error("Named accepts a dataset the table does not declare")
	}
}
