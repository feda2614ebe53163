package main

import (
	"fmt"
	"math"
	"math/rand"

	"m2mjoin/internal/exec"
	"m2mjoin/internal/plan"
	"m2mjoin/internal/service"
	"m2mjoin/internal/storage"
	"m2mjoin/internal/workload"
)

// scale sizes the inputs. full is what BENCHMARK.json's run_seconds is
// tuned for; smoke is the self tests' tiny variant of the same code.
type scale struct {
	name          string
	blowupRows    int // adhoc_blowup driver rows
	selectiveRows int // adhoc_selective driver rows
	serveRows     int // driver rows of each serve dataset
	setupReps     int // set-ups per run; setup_s is their median
	probeReps     int // repetitions behind each layer-probe median
	minProbeKeys  int // keys a kernel probe loop covers at least
}

var (
	fullScale  = scale{"full", 55000, 200000, 20000, 3, 3, 2 << 20}
	smokeScale = scale{"smoke", 1500, 6000, 800, 1, 1, 1 << 14}
)

// Edge statistics are constants of the workload, not functions of the
// seed: the seed varies the rows, never how much work an operation is,
// so runs on different seeds measure the same regime.
var (
	// Snowflake(3,2), m in [0.6,0.9], fo in [1,3]; the product of m*fo
	// over the nine edges is ~13, the flat output per driver row.
	blowupStats = []plan.EdgeStats{
		{M: 0.8, Fo: 2.0}, {M: 0.9, Fo: 1.5}, {M: 0.7, Fo: 2.0},
		{M: 0.7, Fo: 2.0}, {M: 0.8, Fo: 1.5}, {M: 0.9, Fo: 1.2},
		{M: 0.9, Fo: 1.5}, {M: 0.6, Fo: 2.5}, {M: 0.85, Fo: 1.4},
	}
	// Star(6), m in [0.1,0.4], fo in [1,4]; ~0.04 output tuples per
	// driver row. The match probabilities sit at the top of their range
	// and the fanouts are whole numbers so that the few hundred driver
	// rows that survive all six probes — and with them the output size —
	// vary by a few percent between seeds, not by a third.
	selectiveStats = []plan.EdgeStats{
		{M: 0.4, Fo: 2}, {M: 0.38, Fo: 3}, {M: 0.4, Fo: 1},
		{M: 0.36, Fo: 2}, {M: 0.4, Fo: 1}, {M: 0.4, Fo: 1},
	}
	serveSnowflakeStats = []plan.EdgeStats{
		{M: 0.5, Fo: 2}, {M: 0.5, Fo: 2}, {M: 0.3, Fo: 3},
		{M: 0.4, Fo: 3}, {M: 0.6, Fo: 2}, {M: 0.4, Fo: 2.5},
		{M: 0.6, Fo: 1.5}, {M: 0.5, Fo: 1.5}, {M: 0.35, Fo: 4},
	}
	serveStarStats = []plan.EdgeStats{
		{M: 0.5, Fo: 2}, {M: 0.6, Fo: 1.5}, {M: 0.4, Fo: 3},
		{M: 0.55, Fo: 2}, {M: 0.3, Fo: 4}, {M: 0.6, Fo: 2},
	}
	servePathStats = []plan.EdgeStats{
		{M: 0.6, Fo: 2}, {M: 0.5, Fo: 2}, {M: 0.5, Fo: 3},
		{M: 0.4, Fo: 3}, {M: 0.6, Fo: 1.5}, {M: 0.5, Fo: 2.5},
	}
)

// listStats hands out the given statistics in order.
func listStats(stats []plan.EdgeStats) plan.StatsSource {
	i := 0
	return func() plan.EdgeStats {
		s := stats[i]
		i++
		return s
	}
}

// dataset is one generated input with the identity a result file pins.
type dataset struct {
	name        string
	ds          *storage.Dataset
	tree        *plan.Tree
	driverRows  int
	genSeed     int64
	fingerprint uint64
	totalRows   int
}

func generate(name string, tree *plan.Tree, rows int, seed int64) dataset {
	ds := workload.Generate(tree, workload.Config{DriverRows: rows, Seed: seed})
	return dataset{
		name: name, ds: ds, tree: tree, driverRows: rows, genSeed: seed,
		fingerprint: ds.Fingerprint(), totalRows: ds.TotalRows(),
	}
}

// regenerate returns a second, independent copy of the same input: the
// storage commit chain is single-writer per snapshot, so the harness's
// own replay of the writer's stream must not extend the snapshot the
// service extended.
func (d dataset) regenerate() *storage.Dataset {
	return workload.Generate(d.tree, workload.Config{DriverRows: d.driverRows, Seed: d.genSeed})
}

// template is one query of a workload with its oracle answer.
type template struct {
	name string
	ds   int // index into env.datasets
	req  service.Request
	// sels is req.Selections resolved to node ids, for the oracle.
	sels     []exec.Selection
	count    int64
	checksum uint64
}

// env is a workload's generated input: datasets, templates with oracle
// answers, and the order in which the load loop issues templates.
type env struct {
	workload  string
	sc        scale
	seed      int64
	datasets  []dataset
	templates []template
	// schedule is one cycle of template indices in exact Zipf(1.3)
	// proportions, shuffled by the seed; clients walk it round robin.
	schedule []int
	// parallelism is exec parallelism on the adhoc path.
	parallelism int
}

// zipfCounts returns how often each of n ranks occurs in one schedule
// cycle: proportional to rank^-s, the rarest rank twice.
func zipfCounts(n int, s float64) []int {
	last := math.Pow(float64(n), -s)
	counts := make([]int, n)
	for k := 1; k <= n; k++ {
		counts[k-1] = int(math.Round(2 * math.Pow(float64(k), -s) / last))
	}
	return counts
}

func buildEnv(w string, sc scale, seed int64, nproc int) (*env, error) {
	e := &env{workload: w, sc: sc, seed: seed}
	switch w {
	case adhocBlowup:
		e.parallelism = min(2, nproc)
		e.datasets = []dataset{generate("blowup", plan.Snowflake(3, 2, listStats(blowupStats)), sc.blowupRows, seed)}
		e.templates = []template{{name: "blowup/auto", req: service.Request{Dataset: "blowup", FlatOutput: true}}}
	case adhocSelective:
		e.parallelism = 1
		e.datasets = []dataset{generate("selective", plan.Star(6, listStats(selectiveStats)), sc.selectiveRows, seed)}
		e.templates = []template{{name: "selective/auto", req: service.Request{Dataset: "selective", FlatOutput: true}}}
	case serveWarmMix, serveShardedWrites:
		e.parallelism = nproc
		e.datasets = []dataset{
			generate("snowflake32", plan.Snowflake(3, 2, listStats(serveSnowflakeStats)), sc.serveRows, seed*100+1),
			generate("star", plan.Star(6, listStats(serveStarStats)), sc.serveRows, seed*100+2),
			generate("path", plan.CenteredPath(7, listStats(servePathStats)), sc.serveRows, seed*100+3),
		}
		// Rank order is variant-major: the three auto-planned templates
		// are the popular head, the cache-bypassing SJ ones mid-tail.
		type variant struct {
			tag, strategy string
			flat, sel     bool
		}
		for _, v := range []variant{
			{"auto", "", true, false},
			{"bvpcom", "BVP+COM", false, false},
			{"sjcom", "SJ+COM", true, false},
			{"driversel", "COM", true, true},
		} {
			for di, d := range e.datasets {
				t := template{
					name: d.name + "/" + v.tag,
					ds:   di,
					req:  service.Request{Dataset: d.name, Strategy: v.strategy, FlatOutput: v.flat},
				}
				if v.sel {
					row := int64(di + 1)
					t.req.Selections = []service.SelectionSpec{{Relation: d.tree.Name(plan.Root), Column: "id", Value: row}}
					t.sels = []exec.Selection{{Rel: plan.Root, Column: "id", Value: row}}
				}
				e.templates = append(e.templates, t)
			}
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", w)
	}
	for i := range e.templates {
		t := &e.templates[i]
		t.count, t.checksum = exec.ReferenceOpts(e.datasets[t.ds].ds, nil, t.sels)
	}
	for rank, c := range zipfCounts(len(e.templates), 1.3) {
		for ; c > 0; c-- {
			e.schedule = append(e.schedule, rank)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(e.schedule), func(i, j int) { e.schedule[i], e.schedule[j] = e.schedule[j], e.schedule[i] })
	return e, nil
}

// check compares an executed query with the template's oracle answer.
func (t *template) check(st exec.Stats) error {
	// A factorized COM run counts its output without enumerating it, so
	// only flat requests carry a checksum to compare.
	if st.OutputTuples != t.count || (t.req.FlatOutput && st.Checksum != t.checksum) {
		return fmt.Errorf("%s: got %d tuples checksum %#x, oracle %d tuples checksum %#x",
			t.name, st.OutputTuples, st.Checksum, t.count, t.checksum)
	}
	if st.Coverage != 1 {
		return fmt.Errorf("%s: coverage %v < 1", t.name, st.Coverage)
	}
	return nil
}
