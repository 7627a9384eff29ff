// Package stats provides the latency summaries used by every experiment to
// report simulated measurements (mean, percentiles, min/max), mirroring
// how the paper reports averages over 1,000–10,000 trials.
//
// Two implementations of the Summary interface exist: Recorder keeps every
// sample and computes exact percentiles (the default for calibrated
// experiments and the reference for equivalence tests; a sample from 0 to
// about 4.29 s is stored in 32 bits, any other in 64), and Sketch holds a
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
// exact. A sample in [0, 2³²) ns, 0 to about 4.29 s, is stored in 32 bits
// in the narrow chunk list; any other sample goes whole into the wide
// list, so every sample stays exact and nearly all take half the bytes.
// Each list writes its samples once into fixed chunks that are never
// reallocated or copied: the first holds minChunk samples, each next one
// twice its predecessor, up to maxChunk. A read sorts each unsorted chunk
// in place and selects order statistics by rank across the sorted chunks
// of both lists, so no read allocates once the selection scratch has grown
// with the chunk lists.
//
// Add is small enough for the compiler to inline: one comparison against
// lim admits a sample to the narrow tail. lim is limStep times the tail's
// free slots, so it never exceeds 2³² (no wide sample passes) and is 0
// when the tail is full. Every other sample, wide or not, goes to addSlow,
// which files it the same way and resets lim. Add keeps no running sum, so
// Sum and Mean add up the narrow tail, at most maxChunk samples, to the
// total kept for everything else.
type Recorder struct {
	name string
	lim  uint64
	// narrow holds the samples in [0, 2³²), wide every other one.
	narrow chunkList[uint32]
	wide   chunkList[time.Duration]
	// win is the rank-selection scratch: one window per chunk, narrow's
	// chunks first, then wide's.
	win []window
	// sumExact, plus the narrow tail's samples, is the overflow-safe
	// integer total backing Sum — and, since integer addition is
	// associative, the order-independent numerator backing Mean: a float64
	// running sum accumulated in Add order could differ in the final bit
	// from any other summation order, which is the last-bit drift Mean
	// used to document. It holds the wide samples and the full narrow
	// chunks.
	sumExact time.Duration
}

// Chunk capacities grow geometrically from minChunk to maxChunk samples, so
// a recorder holding few samples stays small and a large one wastes at most
// one partly filled chunk per list. A chunk list starts with room for
// listSlots chunks (20,224 samples), which holds most lists in one
// allocation.
const (
	minChunk  = 256
	maxChunk  = 4096
	listSlots = 8
)

// limStep is what each free slot of the narrow tail adds to Recorder.lim:
// 2³² / maxChunk, so a tail of maxChunk free slots admits every narrow
// sample. A sample at or above lim in a fuller or smaller tail takes the
// slow path, which stores it in the same place.
const limStep = 1 << 32 / maxChunk

// sample is the stored form of a sample in one chunk list.
type sample interface{ uint32 | time.Duration }

// chunkList holds the samples of one width in chunks.
type chunkList[T sample] struct {
	// chunks holds the samples; every chunk but the last is full. Add
	// appends to tail, the last chunk, and leaves its header in chunks
	// stale: sort refreshes it before any read walks the chunks.
	chunks [][]T
	tail   []T
	full   int // samples in the chunks before the last
	// sorted counts the leading chunks already sorted. Add appends only
	// to the last chunk, so a read after an Add re-sorts at most that one.
	sorted int
}

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

// Add records one sample, appending it to the last chunk of its width's
// list; when that chunk is full, it opens a new one instead of growing and
// copying the old.
func (r *Recorder) Add(d time.Duration) {
	if uint64(d) < r.lim {
		r.narrow.tail = append(r.narrow.tail, uint32(d))
		r.lim -= limStep
	} else {
		r.addSlow(d)
	}
}

// addSlow stores a sample that Add did not admit inline: a wide one, or a
// narrow one at or above lim, which may find the narrow tail full.
func (r *Recorder) addSlow(d time.Duration) {
	if uint64(d) >= 1<<32 {
		r.wide.add(d)
		r.sumExact += d
		return
	}
	n := &r.narrow
	if len(n.tail) == cap(n.tail) {
		r.sumExact += r.tailSum()
		n.grow()
	}
	n.tail = append(n.tail, uint32(d))
	r.lim = uint64(cap(n.tail)-len(n.tail)) * limStep
}

// tailSum returns the total of the narrow tail's samples.
func (r *Recorder) tailSum() time.Duration {
	var sum time.Duration
	for _, v := range r.narrow.tail {
		sum += time.Duration(v)
	}
	return sum
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return r.narrow.count() + r.wide.count() }

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
	return time.Duration(float64(r.Sum()) / float64(n))
}

// Min returns the smallest sample (0 with no samples).
func (r *Recorder) Min() time.Duration {
	r.sort()
	v, ok := r.narrow.least()
	if w, wok := r.wide.least(); wok && (!ok || w < v) {
		v = w
	}
	return v
}

// Max returns the largest sample (0 with no samples).
func (r *Recorder) Max() time.Duration {
	r.sort()
	v, ok := r.narrow.greatest()
	if w, wok := r.wide.greatest(); wok && (!ok || w > v) {
		v = w
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
func (r *Recorder) Sum() time.Duration { return r.sumExact + r.tailSum() }

// String summarizes the distribution.
func (r *Recorder) String() string {
	return fmt.Sprintf("%s: n=%d mean=%v p50=%v p99=%v min=%v max=%v",
		r.name, r.Count(), r.Mean(), r.Median(), r.Percentile(99), r.Min(), r.Max())
}

// sort sorts in place every chunk not sorted since its last Add.
func (r *Recorder) sort() {
	r.narrow.sort()
	r.wide.sort()
}

// rank returns the k-th smallest sample (0 <= k < Count). It bisects on the
// value between Min and Max, counting the samples at or below each probe
// with a binary search in every chunk's window, and narrows the windows as
// the value range shrinks; once a single window is left, the answer is
// read from it by index.
func (r *Recorder) rank(k int) time.Duration {
	lo, hi := r.Min(), r.Max() // sorts; the answer lies in [lo, hi]
	nn, nw := len(r.narrow.chunks), len(r.wide.chunks)
	switch {
	case nn == 1 && nw == 0:
		return time.Duration(r.narrow.chunks[0][k])
	case nn == 0 && nw == 1:
		return r.wide.chunks[0][k]
	}
	if cap(r.win) < nn+nw {
		r.win = make([]window, nn+nw, cap(r.narrow.chunks)+cap(r.wide.chunks))
	}
	nwin, wwin := r.win[:nn], r.win[nn:nn+nw]
	r.narrow.open(nwin)
	r.wide.open(wwin)
	below := 0 // samples known to be below lo: the sum of the windows' lo
	for lo < hi {
		// Overflow-safe midpoint: hi-lo may exceed MaxInt64, but not
		// MaxUint64, and lo <= mid < hi.
		mid := lo + time.Duration((uint64(hi)-uint64(lo))/2)
		atOrBelow := below + r.narrow.cut(nwin, mid) + r.wide.cut(wwin, mid)
		up := atOrBelow > k // the answer is at or below mid
		if up {
			hi = mid
		} else {
			lo, below = mid+1, atOrBelow
		}
		nleft, nlast := keep(nwin, up)
		wleft, wlast := keep(wwin, up)
		switch {
		case nleft == 1 && wleft == 0:
			return time.Duration(r.narrow.chunks[nlast][nwin[nlast].lo+k-below])
		case nleft == 0 && wleft == 1:
			return r.wide.chunks[wlast][wwin[wlast].lo+k-below]
		}
	}
	return lo
}

// keep shrinks every open window to the part of it on the answer's side of
// the probe: at or below it when up, above it otherwise. It returns the
// number of windows left open and the index of the last.
func keep(win []window, up bool) (left, last int) {
	for i := range win {
		w := &win[i]
		if w.lo == w.hi {
			continue
		}
		if up {
			w.hi = w.lo + w.cut
		} else {
			w.lo += w.cut
		}
		if w.lo < w.hi {
			left, last = left+1, i
		}
	}
	return left, last
}

// add appends v to the tail, opening a new chunk when the tail is full.
func (l *chunkList[T]) add(v T) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, v)
}

// grow starts a new last chunk after the full tail: twice its size, from
// minChunk up to maxChunk.
func (l *chunkList[T]) grow() {
	size := minChunk
	if len(l.chunks) == 0 {
		l.chunks = make([][]T, 0, listSlots)
	} else {
		l.syncTail()
		l.full += len(l.tail)
		size = min(2*cap(l.tail), maxChunk)
	}
	l.tail = make([]T, 0, size)
	l.chunks = append(l.chunks, l.tail)
}

// syncTail refreshes the last chunk's header from tail; a chunk that Add
// grew since the last sort is no longer sorted.
func (l *chunkList[T]) syncTail() {
	if last := len(l.chunks) - 1; last >= 0 && len(l.chunks[last]) != len(l.tail) {
		l.chunks[last] = l.tail
		l.sorted = min(l.sorted, last)
	}
}

// count returns the number of samples in the list.
func (l *chunkList[T]) count() int { return l.full + len(l.tail) }

// sort sorts in place every chunk not sorted since its last Add.
func (l *chunkList[T]) sort() {
	l.syncTail()
	for ; l.sorted < len(l.chunks); l.sorted++ {
		slices.Sort(l.chunks[l.sorted])
	}
}

// least returns the smallest sample of a sorted list, the least first
// sample of a chunk; ok is false when the list is empty.
func (l *chunkList[T]) least() (v time.Duration, ok bool) {
	if len(l.chunks) == 0 {
		return 0, false
	}
	m := l.chunks[0][0]
	for _, c := range l.chunks[1:] {
		m = min(m, c[0])
	}
	return time.Duration(m), true
}

// greatest returns the largest sample of a sorted list, the greatest last
// sample of a chunk; ok is false when the list is empty.
func (l *chunkList[T]) greatest() (v time.Duration, ok bool) {
	if len(l.chunks) == 0 {
		return 0, false
	}
	m := l.chunks[0][len(l.chunks[0])-1]
	for _, c := range l.chunks[1:] {
		m = max(m, c[len(c)-1])
	}
	return time.Duration(m), true
}

// open sets each chunk's window to the whole chunk.
func (l *chunkList[T]) open(win []window) {
	for i, c := range l.chunks {
		win[i] = window{hi: len(c)}
	}
}

// cut sets each open window's cut to its count of samples at or below v
// and returns their total. A v outside T's range lies below every sample
// (v < 0, only for the narrow list) or above every one.
func (l *chunkList[T]) cut(win []window, v time.Duration) int {
	t := T(v)
	inRange := time.Duration(t) == v
	total := 0
	for i, c := range l.chunks {
		w := &win[i]
		switch {
		case w.lo == w.hi:
			continue
		case inRange:
			w.cut = atOrBelow(c[w.lo:w.hi], t)
		case v < 0:
			w.cut = 0
		default:
			w.cut = w.hi - w.lo
		}
		total += w.cut
	}
	return total
}

// atOrBelow returns the number of samples in sorted s at or below t.
func atOrBelow[T sample](s []T, t T) int {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if s[m] <= t {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
