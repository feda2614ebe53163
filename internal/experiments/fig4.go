package experiments

import (
	"math/rand"

	"m2mjoin/internal/plan"
	"m2mjoin/internal/stats"
	"m2mjoin/internal/storage"
)

// fig4 reproduces the sampling-effectiveness study of Section 3.2:
// random two-relation joins with random equality predicates over
// correlated DBLP-like tables, comparing the naive distinct-count
// estimator against correlated sampling at 0.1%, 0.5% and 1% rates.
// Average Q-errors are reported separately for match probability and
// fanout, split into low (m < 0.05) and high match-probability
// queries, matching the paper's grouping.
//
// Substitution note: the real DBLP tables of the CE benchmark are not
// available offline; the generated tables reproduce the relevant
// structure — a skewed join key with predicate columns correlated to
// it — so the naive estimator's independence assumption fails the same
// way. Zero-match sample estimates are smoothed with the rule of
// succession (m ~ 1/(q+2) for q qualifying samples), the standard
// guard against unbounded Q-errors on rare predicates.
func fig4(scale Scale, seed int64, _ int) *Table {
	rng := rand.New(rand.NewSource(seed))
	nR, domain, queries := 400000, 40000, 120
	if scale == Quick {
		nR, domain, queries = 120000, 12000, 60
	}

	r, s := dblpLikePair(rng, nR, domain)
	naive := stats.NewNaive(r, s, "b")
	methods := []string{"Naive", "0.1%", "0.5%", "1%"}
	var samples []*stats.CorrelatedSample
	for _, rate := range []float64{0.001, 0.005, 0.01} {
		samples = append(samples, stats.BuildCorrelatedSample(rng, r, s, "b", rate))
	}

	// errs[range][method] collects each evaluated query's Q-errors.
	type qerrs struct{ m, fo []float64 }
	ranges := []string{"m < 0.05", "m > 0.05"}
	errs := [2][]qerrs{make([]qerrs, len(methods)), make([]qerrs, len(methods))}
	for evaluated := 0; evaluated < queries; {
		pR := &stats.Predicate{Column: "a", Value: rng.Int63n(aCardinality)}
		pS := &stats.Predicate{Column: "c", Value: rng.Int63n(cCardinality)}
		truth := stats.GroundTruth(r, s, "b", pR, pS)
		if truth.M == 0 {
			continue
		}
		evaluated++
		acc := errs[1]
		if truth.M < 0.05 {
			acc = errs[0]
		}
		record := func(method int, est plan.EdgeStats) {
			acc[method].m = append(acc[method].m, stats.QError(est.M, truth.M))
			acc[method].fo = append(acc[method].fo, stats.QError(est.Fo, truth.Fo))
		}

		nEst := naive.Estimate(pS.Selectivity(s))
		record(0, nEst)
		for i, cs := range samples {
			d, ok := cs.EstimateDetail(pR, pS)
			est := d.Stats
			switch {
			case !ok:
				est = nEst // empty sample: fall back to naive
			case d.Matched == 0:
				// Rule-of-succession smoothing for zero-match samples.
				est.M = 1.0 / float64(d.Qualifying+2)
				est.Fo = nEst.Fo
			}
			record(i+1, est)
		}
	}

	t := &Table{
		Title:   "Fig 4: average Q-error of match probability / fanout estimation",
		Labels:  []string{"method", "m range"},
		Columns: []Column{{"avg Q-err (m)", ""}, {"avg Q-err (fo)", ""}, {"queries", "%.0f"}},
		Notes:   []string{"paper: naive degrades sharply for low-m queries; even 0.1% samples stay near Q-error 1-2"},
	}
	for ri, rangeName := range ranges {
		for i, name := range methods {
			if e := errs[ri][i]; len(e.m) > 0 { // a range no query fell in has no row
				t.add([]string{name, rangeName}, mean(e.m), mean(e.fo), float64(len(e.m)))
			}
		}
	}
	return t
}

const (
	aCardinality = 12
	cCardinality = 9
)

// dblpLikePair builds R(b, a) and S(b, c): join key b zipf-skewed;
// predicate columns are correlated with the key but noisy (venue and
// author community track each other imperfectly), so independence-
// based estimation misjudges predicate-conditioned match
// probabilities while sampling still sees the correlation.
func dblpLikePair(rng *rand.Rand, nR, domain int) (*storage.Relation, *storage.Relation) {
	r := storage.NewRelation("R", "b", "a")
	s := storage.NewRelation("S", "b", "c")
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(domain-1))
	for i := 0; i < nR; i++ {
		b := int64(zipf.Uint64())
		a := (b + rng.Int63n(3)) % aCardinality // correlated with noise
		r.AppendRow(b, a)
	}
	// S: two thirds of the domain participates; fanout grows with the
	// key's residue and repeats c values so conditional fanouts exceed 1.
	for b := int64(0); b < int64(domain); b++ {
		if b%3 == 2 {
			continue
		}
		fan := 1 + int(b%6)
		for j := 0; j < fan; j++ {
			c := (b + int64(j/2) + rng.Int63n(2)) % cCardinality
			s.AppendRow(b, c)
		}
	}
	return r, s
}
