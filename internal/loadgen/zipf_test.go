package loadgen

import (
	"math"
	"testing"

	"repro/internal/simrand"
)

func TestZipfSkewConcentratesOnHotRanks(t *testing.T) {
	z := NewZipf(1000, 1.0)
	rng := simrand.New(3)
	counts := make([]int, len(z.cdf))
	const draws = 200000
	for i := 0; i < draws; i++ {
		r := z.Sample(rng)
		if r < 0 || r >= len(z.cdf) {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	// Rank 0 should carry ~1/H(1000) ≈ 13.4% of the mass.
	got := float64(counts[0]) / draws
	want := z.Share(1)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("rank-0 share = %.3f, want ≈ %.3f", got, want)
	}
	// Top 10 ranks: ~39%. A uniform picker would give 1%.
	top10 := 0
	for _, c := range counts[:10] {
		top10 += c
	}
	if share := float64(top10) / draws; math.Abs(share-z.Share(10)) > 0.01 {
		t.Errorf("top-10 share = %.3f, want ≈ %.3f", share, z.Share(10))
	}
	// Monotone: hotter ranks drawn at least roughly as often as colder
	// ones (averaged over decades to smooth sampling noise).
	if counts[0] < counts[99] {
		t.Errorf("rank 0 (%d draws) colder than rank 99 (%d)", counts[0], counts[99])
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	z := NewZipf(10, 0)
	for k := 1; k <= 10; k++ {
		if got, want := z.Share(k), float64(k)/10; math.Abs(got-want) > 1e-12 {
			t.Fatalf("Share(%d) = %v, want %v (uniform)", k, got, want)
		}
	}
}

func TestZipfDeterministicPerSeed(t *testing.T) {
	za, zb := NewZipf(500, 1.1), NewZipf(500, 1.1)
	ra, rb := simrand.New(9), simrand.New(9)
	for i := 0; i < 1000; i++ {
		if a, b := za.Sample(ra), zb.Sample(rb); a != b {
			t.Fatalf("draw %d: %d != %d for identical seeds", i, a, b)
		}
	}
}

func TestZipfRankOfMatchesSample(t *testing.T) {
	z := NewZipf(100, 1.0)
	if got := z.RankOf(0); got != 0 {
		t.Errorf("RankOf(0) = %d, want the hottest rank", got)
	}
	if got := z.RankOf(0.999999); got != 99 {
		t.Errorf("RankOf(~1) = %d, want the coldest rank", got)
	}
	// RankOf is the deterministic core Sample wraps: feeding it the same
	// uniforms an RNG would produce must give the same ranks.
	ra, rb := simrand.New(7), simrand.New(7)
	for i := 0; i < 1000; i++ {
		if a, b := z.Sample(ra), z.RankOf(rb.Float64()); a != b {
			t.Fatalf("draw %d: Sample %d != RankOf %d", i, a, b)
		}
	}
}
