package stats

import (
	"math"
	"math/bits"
	"time"
)

// Sketch is a fixed-memory Summary using HDR-histogram-style log-linear
// bucketing: each power-of-two octave of the duration range splits into
// 2^subBits equal-width sub-buckets, so values below 2^subBits ns are exact
// and every larger bucket's midpoint is within 2^-(subBits+1) relative
// error of any value it absorbs. Count, Sum and Max are tracked exactly
// alongside the buckets; only Percentile approximates.
//
// The bucket array grows lazily to the largest observed octave and tops out
// near 30 KB even for full int64 range — a few KB for realistic latency
// ranges — so a million-user run costs the same memory as a ten-sample one.
// Add is O(1) and allocation-free once the array covers the observed range.
type Sketch struct {
	counts []int64
	count  int
	// min and max are the exact extremes: the envelope Percentile clamps
	// bucket midpoints to.
	min, max time.Duration
	sumExact time.Duration
}

var _ Summary = (*Sketch)(nil)

const (
	// subBits=6 gives a percentile error bound of 2^-7 ≈ 0.78%, inside
	// the ≤1% target. Each extra bit halves the bound and doubles memory.
	subBits uint   = 6
	subMask uint64 = 1<<subBits - 1
)

// NewSketch returns an empty sketch with a ≤1% percentile relative-error
// bound.
func NewSketch() *Sketch { return &Sketch{} }

// Footprint returns the current bucket-array size in bytes — the part of
// the sketch that scales with observed range rather than sample count.
func (s *Sketch) Footprint() int {
	return len(s.counts) * 8
}

// bucketIndex maps a non-negative duration to its bucket. Group 0 holds the
// exact values [0, 2^subBits); group g >= 1 covers one octave split into
// 2^subBits sub-buckets of width 2^(g-1).
func (s *Sketch) bucketIndex(v uint64) int {
	if v < uint64(1)<<subBits {
		return int(v)
	}
	e := uint(bits.Len64(v)) - 1
	g := e - subBits + 1
	sub := (v >> (e - subBits)) & subMask
	return int(g<<subBits) + int(sub)
}

// bucketValue returns the representative (midpoint) duration for a bucket,
// the inverse of bucketIndex up to half a bucket width.
func (s *Sketch) bucketValue(index int) time.Duration {
	g := uint(index) >> subBits
	if g == 0 {
		return time.Duration(index)
	}
	sub := uint64(index) & subMask
	lower := (uint64(1)<<subBits + sub) << (g - 1)
	width := uint64(1) << (g - 1)
	return time.Duration(lower + width/2)
}

// Add records one sample in O(1), allocation-free once the bucket array
// spans the observed range. Negative durations (which Recorder stores
// verbatim but no experiment produces) clamp into bucket 0; Percentile(0)
// still reports the true minimum.
func (s *Sketch) Add(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	i := s.bucketIndex(v)
	if i >= len(s.counts) {
		grown := make([]int64, i+1)
		copy(grown, s.counts)
		s.counts = grown
	}
	s.counts[i]++
	if s.count == 0 || d < s.min {
		s.min = d
	}
	if s.count == 0 || d > s.max {
		s.max = d
	}
	s.count++
	s.sumExact += d
}

// Count returns the number of samples.
func (s *Sketch) Count() int { return s.count }

// Max returns the exact largest sample (0 with no samples).
func (s *Sketch) Max() time.Duration { return s.max }

// Percentile returns the p-th percentile (0 <= p <= 100) with the same
// nearest-rank interpolation as Recorder, evaluated over bucket midpoints
// and clamped to the exact [min, max] envelope; the result is within
// 2^-(subBits+1) relative error of the exact recorder's answer. It returns
// 0 with no samples.
func (s *Sketch) Percentile(p float64) time.Duration {
	if s.count == 0 {
		return 0
	}
	if p <= 0 {
		return s.min
	}
	if p >= 100 {
		return s.max
	}
	rank := p / 100 * float64(s.count-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	loV := s.valueAtRank(lo)
	v := loV
	if hi != lo {
		hiV := s.valueAtRank(hi)
		frac := rank - float64(lo)
		v = loV + time.Duration(frac*float64(hiV-loV))
	}
	// Bucket midpoints can poke past the true extremes by half a width;
	// the exact envelope is free, so never report outside it.
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// valueAtRank returns the representative duration of the bucket holding
// the sample at the given zero-based rank in sorted order.
func (s *Sketch) valueAtRank(rank int) time.Duration {
	cum := 0
	for i, c := range s.counts {
		cum += int(c)
		if cum > rank {
			return s.bucketValue(i)
		}
	}
	return s.max
}

// Sum returns the exact total of all samples.
func (s *Sketch) Sum() time.Duration { return s.sumExact }
