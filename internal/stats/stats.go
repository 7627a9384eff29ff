// Package stats provides the latency recorder used by every experiment to
// report simulated measurements (mean, percentiles, min/max), mirroring
// how the paper reports averages over 1,000–10,000 trials.
//
// Recorder keeps every sample and computes exact percentiles: a sample from
// 0 to about 4.29 s is stored in 32 bits, any other in 64, in chunks of
// 1,024 samples. Samples grow with completed requests, not with simulated
// users, so even the million-user experiment reports exact tails.
package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Recorder accumulates duration samples. The zero value is unusable; create
// one with NewRecorder. Recorders keep every sample, so percentiles are
// exact. A sample in [0, 2³²) ns, 0 to about 4.29 s, is stored in 32 bits
// in the narrow chunk list; any other sample goes whole into the wide
// list, so every sample stays exact and nearly all take half the bytes.
// Each list writes its samples once into fixed chunks of chunkSize samples
// that are never reallocated or copied. A read sorts each unsorted chunk
// in place, a narrow one by radix sort with its scratch on the stack, and
// finds an order statistic by bisection on its value, counting the samples
// at or below each probe in the sorted chunks of both lists, so no read
// allocates.
//
// Add is small enough for the compiler to inline: one comparison against
// lim admits a sample to the narrow tail. lim is limStep times the tail's
// free slots, so it never exceeds 2³² (no wide sample passes) and is 0
// when the tail is full. Every other sample, wide or not, goes to addSlow,
// which files it the same way and resets lim. Add keeps no running sum, so
// Sum and Mean add up the narrow tail, at most chunkSize samples, to the
// total kept for everything else.
type Recorder struct {
	name string
	lim  uint64
	// narrow holds the samples in [0, 2³²), wide every other one.
	narrow chunkList[uint32]
	wide   chunkList[time.Duration]
	// sumExact, plus the narrow tail's samples, is the overflow-safe
	// integer total backing Sum — and, since integer addition is
	// associative, the order-independent numerator backing Mean: a float64
	// running sum accumulated in Add order could differ in the final bit
	// from any other summation order, which is the last-bit drift Mean
	// used to document. It holds the wide samples and the full narrow
	// chunks.
	sumExact time.Duration
}

// Every chunk holds chunkSize samples, so a list wastes at most the unfilled
// part of its last chunk. A chunk list starts with room for listSlots
// chunks (8,192 samples), which holds most lists in one allocation.
const (
	chunkSize = 1024
	listSlots = 8
)

// limStep is what each free slot of the narrow tail adds to Recorder.lim:
// 2³² / chunkSize, so an empty tail admits every narrow sample. A sample at
// or above lim in a fuller tail takes the slow path, which stores it in the
// same place.
const limStep = 1 << 32 / chunkSize

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

// sort sorts in place every chunk not sorted since its last Add: narrow
// chunks by radix sort, wide ones by comparison.
func (r *Recorder) sort() {
	r.narrow.sort(radixSort)
	r.wide.sort(slices.Sort[[]time.Duration])
}

// rank returns the k-th smallest sample (0 <= k < Count): the least value
// v between Min and Max with more than k samples at or below it, found by
// bisection on the value, counting the samples at or below each probe with
// a binary search in every chunk of both lists.
func (r *Recorder) rank(k int) time.Duration {
	lo, hi := r.Min(), r.Max() // sorts; the answer lies in [lo, hi]
	for lo < hi {
		// Overflow-safe midpoint: hi-lo may exceed MaxInt64, but not
		// MaxUint64, and lo <= mid < hi.
		mid := lo + time.Duration((uint64(hi)-uint64(lo))/2)
		if r.narrow.atOrBelow(mid)+r.wide.atOrBelow(mid) > k {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// add appends v to the tail, opening a new chunk when the tail is full.
func (l *chunkList[T]) add(v T) {
	if len(l.tail) == cap(l.tail) {
		l.grow()
	}
	l.tail = append(l.tail, v)
}

// grow starts a new last chunk after the full tail.
func (l *chunkList[T]) grow() {
	if len(l.chunks) == 0 {
		l.chunks = make([][]T, 0, listSlots)
	} else {
		l.syncTail()
		l.full += len(l.tail)
	}
	l.tail = make([]T, 0, chunkSize)
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

// sort sorts in place, with sortChunk, every chunk not sorted since its
// last Add.
func (l *chunkList[T]) sort(sortChunk func([]T)) {
	l.syncTail()
	for ; l.sorted < len(l.chunks); l.sorted++ {
		sortChunk(l.chunks[l.sorted])
	}
}

// radixSort sorts a chunk of at most chunkSize samples in place: a stable
// counting sort on each byte, least significant first, skipping any byte
// that every sample shares. Its scratch is on the stack, so it allocates
// nothing.
func radixSort(s []uint32) {
	if len(s) < 2 {
		return
	}
	var buf [chunkSize]uint32
	var count [256]uint32
	// A bit set in every sample or in none is clear in varies.
	and, or := s[0], s[0]
	for _, v := range s[1:] {
		and &= v
		or |= v
	}
	varies := and ^ or
	src, dst := s, buf[:len(s)]
	for shift := 0; shift < 32; shift += 8 {
		if byte(varies>>shift) == 0 {
			continue
		}
		clear(count[:])
		for _, v := range src {
			count[byte(v>>shift)]++
		}
		var sum uint32
		for b, c := range count {
			count[b] = sum
			sum += c
		}
		for _, v := range src {
			b := byte(v >> shift)
			dst[count[b]] = v
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
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

// atOrBelow returns the number of samples in a sorted list at or below v.
// A v outside T's range lies below every sample (v < 0, only for the
// narrow list) or above every one.
func (l *chunkList[T]) atOrBelow(v time.Duration) int {
	t := T(v)
	if time.Duration(t) != v {
		if v < 0 {
			return 0
		}
		return l.count()
	}
	n := 0
	for _, c := range l.chunks {
		n += atOrBelow(c, t)
	}
	return n
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
