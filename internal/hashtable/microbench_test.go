package hashtable

import (
	"fmt"
	"math/rand"
	"testing"
)

func microKeys(n, space int) []int64 {
	rng := rand.New(rand.NewSource(42))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(int64(space))
	}
	return keys
}

func BenchmarkBuildOnly(b *testing.B) {
	rel := buildRelation(microKeys(30000, 20000))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Build(rel, "k", nil)
	}
}

func BenchmarkProbeBatchMixed(b *testing.B) {
	rel := buildRelation(microKeys(30000, 20000))
	table := Build(rel, "k", nil)
	probes := microKeys(2048, 40000)
	var res ProbeResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table.ProbeBatchInto(probes, nil, &res)
	}
}

// BenchmarkBuildWorkers times one build of a 228k-row column, about
// the largest child relation of the adhoc benchmark shapes, at one and
// at two workers.
func BenchmarkBuildWorkers(b *testing.B) {
	rel := buildRelation(microKeys(228_000, 80_000))
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprint(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildParallelStop(rel, "k", nil, workers, nil)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/228_000, "ns/row")
		})
	}
}
