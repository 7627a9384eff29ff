package loadgen

// Zipf-skewed pickers, the first slice of the trace-driven workload suite:
// real key popularity and tenant traffic are heavy-tailed, not uniform,
// and it is exactly that skew that creates hot shards, hot tenants, and
// the retry storms that hammer them. The picker precomputes the CDF once
// (the harmonic normalization is O(n) at build time) and samples by binary
// search, so a draw is O(log n) with zero steady-state allocations.

import (
	"math"
	"sort"

	"repro/internal/simrand"
)

// Zipf picks ranks in [0, N) with P(rank=k) ∝ 1/(k+1)^S. Rank 0 is the
// hottest element. S = 1 is the classic Zipf law (web and KV traces
// commonly fit S in [0.9, 1.1]); S → 0 degrades toward uniform.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a picker over n ranks with exponent s. n must be
// positive; s must be non-negative.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("loadgen: Zipf needs a positive rank count")
	}
	if s < 0 {
		panic("loadgen: Zipf exponent must be non-negative")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank from rng: 0 is the hottest, n-1 the coldest.
func (z *Zipf) Sample(rng *simrand.RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// RankOf maps a uniform variate in [0,1) to a rank — the RNG-free lookup
// for callers that derive u by hashing an arrival sequence number, keeping
// the key choice a pure function of the arrival (no simulation RNG draw).
func (z *Zipf) RankOf(u float64) int {
	return sort.SearchFloat64s(z.cdf, u)
}

// Share returns the probability mass of the hottest k ranks — the
// headline skew number ("the top 1% of keys draw 35% of traffic").
func (z *Zipf) Share(k int) float64 {
	if k <= 0 {
		return 0
	}
	if k >= len(z.cdf) {
		return 1
	}
	return z.cdf[k-1]
}
