// Package stats provides the latency summaries used by every experiment to
// report simulated measurements (mean, percentiles, min/max), mirroring
// how the paper reports averages over 1,000–10,000 trials.
//
// Two implementations of the Summary interface exist: Recorder keeps every
// sample and computes exact percentiles (the default for calibrated
// experiments and the reference for equivalence tests), and Sketch holds a
// fixed-memory HDR-histogram-style log-linear bucketing whose percentiles
// carry a fixed relative-error bound — the summary million-user
// experiments use, where retaining every sample would dominate memory.
package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Summary is the measurement-accumulation interface experiments consume:
// anything that can absorb duration samples and report the distribution.
// Count, Sum and Max are exact in both implementations; Percentile is
// exact on Recorder and bounded-relative-error on Sketch.
type Summary interface {
	Add(d time.Duration)
	Count() int
	Max() time.Duration
	Percentile(p float64) time.Duration
	Sum() time.Duration
}

// NewSummary returns the exact Recorder, or a Sketch when
// sketch is set — the switch behind statecache.Config.SketchStaleness.
func NewSummary(name string, sketch bool) Summary {
	if sketch {
		return NewSketch()
	}
	return NewRecorder(name)
}

// Recorder accumulates duration samples. The zero value is unusable; create
// one with NewRecorder. Recorders keep every sample (experiments record at
// most tens of thousands; larger runs use Sketch), so percentiles are
// exact. Add maintains a running sum, so Mean and Sum are O(1) instead of
// re-scanning all samples per call.
type Recorder struct {
	name    string
	samples []time.Duration
	sorted  bool
	// sumExact is the overflow-safe integer total backing Sum — and, since
	// integer addition is associative, the order-independent numerator
	// backing Mean: a float64 running sum accumulated in Add order could
	// differ in the final bit from any other summation order, which is the
	// last-bit drift Mean used to document.
	sumExact time.Duration
}

var _ Summary = (*Recorder)(nil)

// NewRecorder returns an empty recorder labeled name.
func NewRecorder(name string) *Recorder {
	return &Recorder{name: name}
}

// Name returns the recorder's label.
func (r *Recorder) Name() string { return r.name }

// Add records one sample. The sample slice doubles when full (from at
// least 256): append's own growth slows to about 1.25x on large slices,
// which allocates about five times the final slice over a long run.
func (r *Recorder) Add(d time.Duration) {
	if len(r.samples) == cap(r.samples) {
		r.samples = slices.Grow(r.samples, max(len(r.samples), 256))
	}
	r.samples = append(r.samples, d)
	r.sorted = false
	r.sumExact += d
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the arithmetic mean (0 with no samples). It derives from the
// exact integer sum, so its value is independent of Add order and of
// whether a sorting accessor (Percentile/Median/Min/Max) ran first. The
// float division and truncating conversion are those of the historical
// float64 running-sum Mean, so rendered tables stay byte-stable.
func (r *Recorder) Mean() time.Duration {
	if len(r.samples) == 0 {
		return 0
	}
	return time.Duration(float64(r.sumExact) / float64(len(r.samples)))
}

// Min returns the smallest sample (0 with no samples).
func (r *Recorder) Min() time.Duration {
	r.sort()
	if len(r.samples) == 0 {
		return 0
	}
	return r.samples[0]
}

// Max returns the largest sample (0 with no samples).
func (r *Recorder) Max() time.Duration {
	r.sort()
	if len(r.samples) == 0 {
		return 0
	}
	return r.samples[len(r.samples)-1]
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation. It returns 0 with no samples.
func (r *Recorder) Percentile(p float64) time.Duration {
	r.sort()
	n := len(r.samples)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return r.samples[0]
	}
	if p >= 100 {
		return r.samples[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return r.samples[lo]
	}
	frac := rank - float64(lo)
	return r.samples[lo] + time.Duration(frac*float64(r.samples[hi]-r.samples[lo]))
}

// Median returns the 50th percentile.
func (r *Recorder) Median() time.Duration { return r.Percentile(50) }

// Sum returns the total of all samples.
func (r *Recorder) Sum() time.Duration { return r.sumExact }

// String summarizes the distribution.
func (r *Recorder) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p99=%v min=%v max=%v",
		r.name, r.Count(), r.Mean(), r.Median(), r.Percentile(99), r.Min(), r.Max())
}

func (r *Recorder) sort() {
	if r.sorted {
		return
	}
	slices.Sort(r.samples)
	r.sorted = true
}
