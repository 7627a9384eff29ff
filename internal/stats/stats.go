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
// exact. Samples are written once into fixed chunks that are never
// reallocated or copied: the first holds minChunk samples, each next one
// twice its predecessor, up to maxChunk. A read sorts each unsorted chunk
// in place and selects order statistics by rank across the sorted chunks,
// so no read allocates once the selection scratch has grown with the chunk
// list. Add maintains a running sum, so Mean and Sum are O(1).
type Recorder struct {
	name string
	// chunks holds the samples; every chunk but the last is full. Add
	// appends to tail, the last chunk, and leaves its header in chunks
	// stale: sort refreshes it before any read walks the chunks.
	chunks [][]time.Duration
	tail   []time.Duration
	full   int // samples in the chunks before the last
	// sorted counts the leading chunks already sorted. Add appends only
	// to the last chunk, so a read after an Add re-sorts at most that one.
	sorted int
	win    []window // rank-selection scratch, one window per chunk
	// sumExact is the overflow-safe integer total backing Sum — and, since
	// integer addition is associative, the order-independent numerator
	// backing Mean: a float64 running sum accumulated in Add order could
	// differ in the final bit from any other summation order, which is the
	// last-bit drift Mean used to document.
	sumExact time.Duration
}

// Chunk capacities grow geometrically from minChunk to maxChunk samples, so
// a recorder holding few samples stays small and a large one wastes at most
// one partly filled chunk. The chunk list starts with room for listSlots
// chunks (20,224 samples), which holds most recorders' lists in one
// allocation.
const (
	minChunk  = 256
	maxChunk  = 4096
	listSlots = 8
)

// window is the part of one sorted chunk that a rank selection has not yet
// ruled out: chunk[:lo] lies below the searched value range, chunk[hi:]
// above it. cut is the window's count of samples at or below the probe.
type window struct{ lo, hi, cut int }

var _ Summary = (*Recorder)(nil)

// NewRecorder returns an empty recorder labeled name.
func NewRecorder(name string) *Recorder {
	return &Recorder{name: name}
}

// Name returns the recorder's label.
func (r *Recorder) Name() string { return r.name }

// Add records one sample, appending it to the last chunk; when that chunk
// is full, it opens a new one instead of growing and copying the old.
func (r *Recorder) Add(d time.Duration) {
	if len(r.tail) == cap(r.tail) {
		r.open()
	}
	r.tail = append(r.tail, d)
	r.sumExact += d
}

// open starts a new last chunk after the full tail: twice its size, from
// minChunk up to maxChunk.
func (r *Recorder) open() {
	size := minChunk
	if len(r.chunks) == 0 {
		r.chunks = make([][]time.Duration, 0, listSlots)
	} else {
		r.syncTail()
		r.full += len(r.tail)
		size = min(2*cap(r.tail), maxChunk)
	}
	r.tail = make([]time.Duration, 0, size)
	r.chunks = append(r.chunks, r.tail)
}

// syncTail refreshes the last chunk's header from tail; a chunk that Add
// grew since the last sort is no longer sorted.
func (r *Recorder) syncTail() {
	if last := len(r.chunks) - 1; last >= 0 && len(r.chunks[last]) != len(r.tail) {
		r.chunks[last] = r.tail
		r.sorted = min(r.sorted, last)
	}
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return r.full + len(r.tail) }

// Mean returns the arithmetic mean (0 with no samples). It derives from the
// exact integer sum, so its value is independent of Add order and of
// whether a sorting accessor (Percentile/Median/Min/Max) ran first. The
// float division and truncating conversion are those of the historical
// float64 running-sum Mean, so rendered tables stay byte-stable.
func (r *Recorder) Mean() time.Duration {
	n := r.Count()
	if n == 0 {
		return 0
	}
	return time.Duration(float64(r.sumExact) / float64(n))
}

// Min returns the smallest sample (0 with no samples): the least first
// sample of a sorted chunk.
func (r *Recorder) Min() time.Duration {
	r.sort()
	if len(r.chunks) == 0 {
		return 0
	}
	v := r.chunks[0][0]
	for _, c := range r.chunks[1:] {
		v = min(v, c[0])
	}
	return v
}

// Max returns the largest sample (0 with no samples): the greatest last
// sample of a sorted chunk.
func (r *Recorder) Max() time.Duration {
	r.sort()
	if len(r.chunks) == 0 {
		return 0
	}
	v := r.chunks[0][len(r.chunks[0])-1]
	for _, c := range r.chunks[1:] {
		v = max(v, c[len(c)-1])
	}
	return v
}

// Percentile returns the p-th percentile (0 <= p <= 100) using
// nearest-rank interpolation. It returns 0 with no samples.
func (r *Recorder) Percentile(p float64) time.Duration {
	n := r.Count()
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return r.Min()
	}
	if p >= 100 {
		return r.Max()
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo := r.rank(lo)
	if lo == hi {
		return vlo
	}
	frac := rank - float64(lo)
	return vlo + time.Duration(frac*float64(r.rank(hi)-vlo))
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

// sort sorts in place every chunk not sorted since its last Add.
func (r *Recorder) sort() {
	r.syncTail()
	for ; r.sorted < len(r.chunks); r.sorted++ {
		slices.Sort(r.chunks[r.sorted])
	}
}

// rank returns the k-th smallest sample (0 <= k < Count). It bisects on the
// value between Min and Max, counting the samples at or below each probe
// with a binary search in every chunk's window, and narrows the windows as
// the value range shrinks; once a single window is left, the answer is
// read from it by index.
func (r *Recorder) rank(k int) time.Duration {
	lo, hi := r.Min(), r.Max() // sorts; the answer lies in [lo, hi]
	if len(r.chunks) == 1 {
		return r.chunks[0][k]
	}
	if cap(r.win) < len(r.chunks) {
		r.win = make([]window, len(r.chunks), cap(r.chunks))
	}
	win := r.win[:len(r.chunks)]
	for i, c := range r.chunks {
		win[i] = window{hi: len(c)}
	}
	below := 0 // samples known to be below lo: the sum of the windows' lo
	for lo < hi {
		// Overflow-safe midpoint: hi-lo may exceed MaxInt64, but not
		// MaxUint64, and lo <= mid < hi.
		mid := lo + time.Duration((uint64(hi)-uint64(lo))/2)
		atOrBelow, left, last := below, 0, 0
		for i, c := range r.chunks {
			w := &win[i]
			if w.lo == w.hi {
				continue
			}
			// mid < hi <= MaxInt64, so mid+1 does not overflow.
			w.cut, _ = slices.BinarySearch(c[w.lo:w.hi], mid+1)
			atOrBelow += w.cut
		}
		if atOrBelow > k {
			hi = mid
		} else {
			lo, below = mid+1, atOrBelow
		}
		for i := range win {
			w := &win[i]
			if w.lo == w.hi {
				continue
			}
			if atOrBelow > k {
				w.hi = w.lo + w.cut
			} else {
				w.lo += w.cut
			}
			if w.lo < w.hi {
				left, last = left+1, i
			}
		}
		if left == 1 {
			return r.chunks[last][win[last].lo+k-below]
		}
	}
	return lo
}
