package stats

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// Sketch is a fixed-memory Summary using HDR-histogram-style log-linear
// bucketing: each power-of-two octave of the duration range splits into
// 2^subBits equal-width sub-buckets, so values below 2^subBits ns are exact
// and every larger bucket's midpoint is within 2^-(subBits+1) relative
// error of any value it absorbs. Count, Sum, Min, Max, Mean, and Stddev are
// tracked exactly alongside the buckets; only Percentile approximates.
//
// The bucket array grows lazily to the largest observed octave and tops out
// near 30 KB even for full int64 range — a few KB for realistic latency
// ranges — so a million-user run costs the same memory as a ten-sample one.
// Add is O(1) and allocation-free once the array covers the observed range.
type Sketch struct {
	name     string
	counts   []int64
	count    int
	min, max time.Duration
	// Exact moments, maintained with the same arithmetic as Recorder.Add so
	// Mean/Sum/Stddev agree bit-for-bit with the exact path.
	wmean, m2 float64
	sumExact  time.Duration
}

var _ Summary = (*Sketch)(nil)

const (
	// subBits=6 gives a percentile error bound of 2^-7 ≈ 0.78%, inside
	// the ≤1% target. Each extra bit halves the bound and doubles memory.
	subBits uint   = 6
	subMask uint64 = 1<<subBits - 1
)

// NewSketch returns an empty sketch labeled name with a ≤1% percentile
// relative-error bound.
func NewSketch(name string) *Sketch { return &Sketch{name: name} }

// Name returns the sketch's label.
func (s *Sketch) Name() string { return s.name }

// RelativeError returns the percentile error bound 2^-(subBits+1).
func (s *Sketch) RelativeError() float64 {
	return 1 / float64(uint64(2)<<subBits)
}

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
// verbatim but no experiment produces) clamp into bucket 0; Min still
// reports the true value.
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
	f := float64(d)
	delta := f - s.wmean
	s.wmean += delta / float64(s.count)
	s.m2 += delta * (f - s.wmean)
	s.sumExact += d
}

// Reset empties the sketch while retaining the bucket array — the same
// capacity-retention contract as Recorder.Reset, so a sweep worker reusing
// one sketch across points never re-grows the array.
func (s *Sketch) Reset() {
	for i := range s.counts {
		s.counts[i] = 0
	}
	s.count = 0
	s.min = 0
	s.max = 0
	s.wmean = 0
	s.m2 = 0
	s.sumExact = 0
}

// Count returns the number of samples.
func (s *Sketch) Count() int { return s.count }

// Mean returns the exact arithmetic mean (0 with no samples), computed
// identically to Recorder.Mean.
func (s *Sketch) Mean() time.Duration {
	if s.count == 0 {
		return 0
	}
	return meanOf(s.sumExact, s.count)
}

// Min returns the exact smallest sample (0 with no samples).
func (s *Sketch) Min() time.Duration { return s.min }

// Max returns the exact largest sample (0 with no samples).
func (s *Sketch) Max() time.Duration { return s.max }

// Percentile returns the p-th percentile (0 <= p <= 100) with the same
// nearest-rank interpolation as Recorder, evaluated over bucket midpoints
// and clamped to the exact [Min, Max] envelope; the result is within
// RelativeError of the exact recorder's answer. It returns 0 with no
// samples.
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

// Median returns the 50th percentile.
func (s *Sketch) Median() time.Duration { return s.Percentile(50) }

// Stddev returns the exact population standard deviation (0 with <2
// samples), computed identically to Recorder.Stddev.
func (s *Sketch) Stddev() time.Duration {
	if s.count < 2 {
		return 0
	}
	return time.Duration(math.Sqrt(s.m2 / float64(s.count)))
}

// Sum returns the exact total of all samples.
func (s *Sketch) Sum() time.Duration { return s.sumExact }

// String summarizes the distribution in the same format as Recorder.
func (s *Sketch) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p99=%v min=%v max=%v",
		s.name, s.Count(), s.Mean(), s.Median(), s.Percentile(99), s.Min(), s.Max())
}
