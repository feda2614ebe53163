package exec

import "m2mjoin/internal/storage"

// RunBatch runs each of optsList against ds with Run, one after the
// other, and returns each query's Stats and error in its slot. Every
// query scans the driver on its own; the function stays only because
// the benchmark harness (benchmark/probes.go) calls it.
func RunBatch(ds *storage.Dataset, optsList []Options) ([]Stats, []error) {
	stats := make([]Stats, len(optsList))
	errs := make([]error, len(optsList))
	for i, opts := range optsList {
		stats[i], errs[i] = Run(ds, opts)
	}
	return stats, errs
}
