// Package workload generates synthetic datasets with controlled match
// probabilities and fanouts for the paper's evaluation (Section 5.2),
// skewed-fanout datasets for the constant-fanout-assumption study
// (Section 5.6), and simulated CE-benchmark graph datasets
// (Section 5.3).
package workload

import (
	"math"
	"math/rand"
)

// FanoutDist samples per-tuple fanouts (the number of matches a
// matching tuple has). Samples are always >= 1, matching the fanout
// definition of Section 3.1.
type FanoutDist interface {
	// Sample draws one fanout.
	Sample(rng *rand.Rand) int
	// Mean returns the distribution mean, used to derive the edge
	// statistics the cost model sees.
	Mean() float64
}

// Deterministic is a (near-)constant fanout: for a fractional target f
// it samples floor(f) or ceil(f) with the Bernoulli split that makes
// the mean exactly f.
type Deterministic struct{ Fo float64 }

// Sample implements FanoutDist.
func (d Deterministic) Sample(rng *rand.Rand) int {
	base := math.Floor(d.Fo)
	frac := d.Fo - base
	n := int(base)
	if frac > 0 && rng.Float64() < frac {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Mean implements FanoutDist.
func (d Deterministic) Mean() float64 {
	if d.Fo < 1 {
		return 1
	}
	return d.Fo
}

// TruncNormal samples fanouts from a normal distribution truncated to
// [1, 2*Mu-1], the distribution used by the paper's Section 5.6
// experiment (fo ~ N(mu=10, sigma^2), 1 <= fo <= 2mu-1). Truncation by
// resampling keeps the distribution symmetric around Mu, so the mean
// stays Mu.
type TruncNormal struct {
	Mu    float64
	Sigma float64
}

// Sample implements FanoutDist.
func (d TruncNormal) Sample(rng *rand.Rand) int {
	lo, hi := 1.0, 2*d.Mu-1
	for i := 0; i < 1000; i++ {
		x := d.Mu + rng.NormFloat64()*d.Sigma
		if x >= lo && x <= hi {
			return int(math.Round(x))
		}
	}
	return int(math.Round(d.Mu))
}

// Mean implements FanoutDist.
func (d TruncNormal) Mean() float64 { return d.Mu }

// Exponential samples fanouts as 1 + Exp(Mean-1): a highly skewed
// distribution with the given mean, used to stress the constant-fanout
// assumption (Section 5.6 reports average fanouts up to ~45 under it).
type Exponential struct{ Mean_ float64 }

// Sample implements FanoutDist.
func (d Exponential) Sample(rng *rand.Rand) int {
	if d.Mean_ <= 1 {
		return 1
	}
	return 1 + int(math.Floor(rng.ExpFloat64()*(d.Mean_-1)+0.5))
}

// Mean implements FanoutDist.
func (d Exponential) Mean() float64 {
	if d.Mean_ < 1 {
		return 1
	}
	return d.Mean_
}

// Zipf samples fanouts from a zipfian distribution over [1, Max]: the
// heavy-tailed degree distribution of the simulated CE-benchmark graph
// datasets. Construct with NewZipf, which precomputes the inverse CDF.
type Zipf struct {
	s    float64
	max  int
	cdf  []float64
	mean float64
}

// NewZipf returns a zipfian fanout distribution with skew exponent s
// (larger = more skew; must be > 0) over fanouts 1..max.
func NewZipf(s float64, max int) *Zipf {
	if max < 1 {
		panic("workload: NewZipf requires max >= 1")
	}
	cdf := make([]float64, max)
	var norm, mean float64
	for k := 1; k <= max; k++ {
		p := math.Pow(float64(k), -s)
		norm += p
		mean += float64(k) * p
		cdf[k-1] = norm
	}
	for i := range cdf {
		cdf[i] /= norm
	}
	return &Zipf{s: s, max: max, cdf: cdf, mean: mean / norm}
}

// Sample implements FanoutDist via inverse-CDF binary search.
func (d *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	lo, hi := 0, len(d.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Mean implements FanoutDist.
func (d *Zipf) Mean() float64 { return d.mean }
