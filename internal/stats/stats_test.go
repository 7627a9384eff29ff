package stats

import (
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simrand"
)

func recorderWith(ds ...time.Duration) *Recorder {
	r := NewRecorder("t")
	for _, d := range ds {
		r.Add(d)
	}
	return r
}

func TestEmptyRecorder(t *testing.T) {
	r := NewRecorder("empty")
	if r.Count() != 0 || r.Mean() != 0 || r.Min() != 0 || r.Max() != 0 ||
		r.Median() != 0 || r.Sum() != 0 {
		t.Error("empty recorder should return zeros everywhere")
	}
}

func TestMeanMinMax(t *testing.T) {
	r := recorderWith(time.Second, 3*time.Second, 2*time.Second)
	if r.Mean() != 2*time.Second {
		t.Errorf("Mean = %v, want 2s", r.Mean())
	}
	if r.Min() != time.Second || r.Max() != 3*time.Second {
		t.Errorf("Min/Max = %v/%v", r.Min(), r.Max())
	}
	if r.Sum() != 6*time.Second {
		t.Errorf("Sum = %v, want 6s", r.Sum())
	}
}

func TestAddAfterSortStillCorrect(t *testing.T) {
	r := recorderWith(3*time.Second, time.Second)
	if r.Min() != time.Second {
		t.Fatalf("Min = %v", r.Min())
	}
	r.Add(500 * time.Millisecond) // after a sort happened
	if r.Min() != 500*time.Millisecond {
		t.Errorf("Min after new sample = %v, want 500ms", r.Min())
	}
}

func TestPercentiles(t *testing.T) {
	r := NewRecorder("p")
	for i := 1; i <= 100; i++ {
		r.Add(time.Duration(i) * time.Millisecond)
	}
	if got := r.Percentile(0); got != time.Millisecond {
		t.Errorf("p0 = %v", got)
	}
	if got := r.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	med := r.Median()
	if med < 50*time.Millisecond || med > 51*time.Millisecond {
		t.Errorf("median = %v, want ~50.5ms", med)
	}
	p99 := r.Percentile(99)
	if p99 < 99*time.Millisecond || p99 > 100*time.Millisecond {
		t.Errorf("p99 = %v", p99)
	}
}

func TestStringContainsName(t *testing.T) {
	r := recorderWith(time.Second)
	if s := r.String(); len(s) == 0 || s[0] != 't' {
		t.Errorf("String = %q", s)
	}
}

// Property: min <= p50 <= mean-ish bounds <= max; percentile monotone in p.
func TestQuickPercentileMonotone(t *testing.T) {
	prop := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder("q")
		for _, v := range raw {
			r.Add(time.Duration(v))
		}
		prev := r.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := r.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return r.Min() <= r.Median() && r.Median() <= r.Max() &&
			r.Min() <= r.Mean() && r.Mean() <= r.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refPercentile is the recorder's nearest-rank interpolation over a sorted
// copy of every sample: the reference the chunked storage must match.
func refPercentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[n-1]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// checkRecorderMatchesCopy compares every read of r with the same read
// computed from a sorted copy of samples.
func checkRecorderMatchesCopy(t *testing.T, r *Recorder, samples []time.Duration, rng *simrand.RNG) {
	t.Helper()
	ref := slices.Sorted(slices.Values(samples))
	var sum time.Duration
	for _, d := range ref {
		sum += d
	}
	n := len(ref)
	if r.Count() != n || r.Sum() != sum {
		t.Fatalf("n=%d: Count/Sum = %d/%v, want %d/%v", n, r.Count(), r.Sum(), n, sum)
	}
	var mean, lo, hi time.Duration
	if n > 0 {
		mean = time.Duration(float64(sum) / float64(n))
		lo, hi = ref[0], ref[n-1]
	}
	if r.Mean() != mean || r.Min() != lo || r.Max() != hi {
		t.Fatalf("n=%d: Mean/Min/Max = %v/%v/%v, want %v/%v/%v",
			n, r.Mean(), r.Min(), r.Max(), mean, lo, hi)
	}
	if got, want := r.Median(), refPercentile(ref, 50); got != want {
		t.Fatalf("n=%d: Median = %v, want %v", n, got, want)
	}
	ps := []float64{0, 0.1, 1, 50, 90, 99, 99.9, 100, -1, 101}
	for range 8 {
		ps = append(ps, rng.Float64()*100)
	}
	for _, p := range ps {
		if got, want := r.Percentile(p), refPercentile(ref, p); got != want {
			t.Fatalf("n=%d: p%v = %v, want %v", n, p, got, want)
		}
	}
}

// widthEdges are the samples on either side of each edge of the narrow
// list's range [0, 2³²), and the int64 extremes.
var widthEdges = []time.Duration{math.MinInt64, -1, 0, 1<<32 - 1, 1 << 32, math.MaxInt64}

// recorderStream draws samples of one of several shapes: heavy
// duplicates, full-range signed values, the int64 extremes mixed into a
// narrow cluster, a monotone ramp, the width edges, and an even mix of
// narrow and wide samples.
func recorderStream(kind int, rng *simrand.RNG, i int) time.Duration {
	switch kind % 6 {
	case 0:
		return time.Duration(rng.Intn(8) - 4)
	case 1:
		return time.Duration(rng.Uint64())
	case 2:
		switch rng.Intn(10) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		}
		return time.Duration(rng.Intn(1000))
	case 3:
		return time.Duration(i)
	case 4:
		return widthEdges[rng.Intn(len(widthEdges))] + time.Duration(rng.Intn(3)-1)
	default:
		if rng.Intn(2) == 0 {
			return time.Duration(rng.Uint64() >> 32) // narrow
		}
		return time.Duration(rng.Uint64()>>29) - 1<<34 // seven in eight wide
	}
}

// TestRecorderMatchesSortedCopy checks the chunked recorder against a
// sort-a-copy reference at sizes on and around chunk boundaries, the first
// chunks' and those where the chunk list outgrows its first allocation,
// with Adds interleaved with reads.
func TestRecorderMatchesSortedCopy(t *testing.T) {
	sizes := []int{0, 1, 2, 100_000}
	for _, chunks := range []int{1, 2, 3, listSlots, listSlots + 1} {
		total := chunks * chunkSize
		sizes = append(sizes, total-1, total, total+1)
	}
	rng := simrand.New(1)
	for kind := range 6 {
		for _, n := range sizes {
			r := NewRecorder("eq")
			var samples []time.Duration
			for i := range n {
				d := recorderStream(kind, rng, i)
				r.Add(d)
				samples = append(samples, d)
				if rng.Intn(n/4+1) == 0 { // a handful of reads mid-stream
					checkRecorderMatchesCopy(t, r, samples, rng)
				}
			}
			checkRecorderMatchesCopy(t, r, samples, rng)
		}
	}
}

// TestRecorderWidthEdges checks every read against a sorted copy for each
// pair of samples drawn from the edges of the narrow range, so that one
// sample of each pair may land in either list.
func TestRecorderWidthEdges(t *testing.T) {
	rng := simrand.New(1)
	for _, a := range widthEdges {
		for _, b := range widthEdges {
			checkRecorderMatchesCopy(t, recorderWith(a, b), []time.Duration{a, b}, rng)
		}
	}
	checkRecorderMatchesCopy(t, recorderWith(widthEdges...), widthEdges, rng)
}

// TestMeanOrderIndependent is the regression test for the Recorder.Mean
// last-bit drift: with totals beyond 2^53 ns, a float64 running sum rounds
// differently per Add order, so Mean could differ across permutations of
// the same samples. Serving Mean from the exact integer sum makes it a
// pure function of the multiset.
func TestMeanOrderIndependent(t *testing.T) {
	n := 2000
	base := 3 * time.Hour // 2000 × 3h ≈ 2.2e16 ns > 2^53
	forward := NewRecorder("fwd")
	reverse := NewRecorder("rev")
	shuffled := NewRecorder("shuf")
	perm := simrand.New(3).Perm(n)
	for i := 0; i < n; i++ {
		forward.Add(base + time.Duration(i)*time.Microsecond)
		reverse.Add(base + time.Duration(n-1-i)*time.Microsecond)
		shuffled.Add(base + time.Duration(perm[i])*time.Microsecond)
	}
	// A sorting accessor first must not perturb Mean either.
	_ = reverse.Median()
	if forward.Mean() != reverse.Mean() || forward.Mean() != shuffled.Mean() {
		t.Errorf("Mean depends on Add order: fwd %v rev %v shuf %v",
			forward.Mean(), reverse.Mean(), shuffled.Mean())
	}
	if forward.Sum() != reverse.Sum() || forward.Sum() != shuffled.Sum() {
		t.Errorf("Sum depends on Add order: fwd %v rev %v shuf %v",
			forward.Sum(), reverse.Sum(), shuffled.Sum())
	}
	want := time.Duration(float64(forward.Sum()) / float64(n))
	if forward.Mean() != want {
		t.Errorf("Mean %v not derived from exact sum (want %v)", forward.Mean(), want)
	}
}

// TestRecorderAddAllocatesOnce bounds what recording 10⁵ samples allocates:
// each sample is written once into chunks that are never copied, so the
// total is 4 bytes per sample in [0, 2³²) and 8 per other sample, plus at
// most one partly filled chunk and 10% for the chunk list and rounding.
func TestRecorderAddAllocatesOnce(t *testing.T) {
	const n = 100_000
	for _, tc := range []struct {
		name  string
		base  time.Duration // the samples are base+i
		width uint64        // bytes a sample is stored in
	}{
		{"narrow", 0, 4},
		{"wide", 1 << 32, 8},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := NewRecorder("mem")
		for i := range n {
			r.Add(tc.base + time.Duration(i))
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		got := after.TotalAlloc - before.TotalAlloc
		if limit := uint64(1.1*float64(tc.width*n)) + tc.width*chunkSize; got > limit {
			t.Errorf("%s: recording %d samples allocated %d B, want at most %d", tc.name, n, got, limit)
		}
	}
}

// TestRecorderReadsDoNotAllocate checks that reads of a sorted recorder
// allocate nothing.
func TestRecorderReadsDoNotAllocate(t *testing.T) {
	r := NewRecorder("reads")
	for i := range 100_000 {
		r.Add(time.Duration(i*2654435761) % time.Second)
	}
	r.Percentile(50) // sorts
	allocs := testing.AllocsPerRun(100, func() {
		r.Percentile(99)
		r.Min()
		r.Max()
	})
	if allocs != 0 {
		t.Errorf("Percentile/Min/Max allocated %v times per run, want 0", allocs)
	}

	// The first read of a fresh recorder, which sorts its chunks and
	// selects across several of them, allocates nothing either.
	const runs = 8
	fresh := make([]*Recorder, runs+1) // AllocsPerRun calls once more to warm up
	for i := range fresh {
		fresh[i] = NewRecorder("first")
		for j := range 3*chunkSize + i {
			fresh[i].Add(time.Duration(j*2654435761) % time.Second)
		}
	}
	next := 0
	allocs = testing.AllocsPerRun(runs, func() {
		fresh[next].Percentile(99)
		next++
	})
	if allocs != 0 {
		t.Errorf("a fresh recorder's first Percentile allocated %v times per run, want 0", allocs)
	}
}

// BenchmarkRecorderAdd records 10⁵ samples into a new recorder per op; run
// with -benchmem, B/op is the storage written per 10⁵ samples.
func BenchmarkRecorderAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := NewRecorder("bench")
		for j := range 100_000 {
			r.Add(time.Duration(j))
		}
	}
}

// BenchmarkRecorderPercentile measures the percentile path on a recorder
// the size of a large experiment (100k samples), including the re-sort
// triggered by interleaved Adds.
func BenchmarkRecorderPercentile(b *testing.B) {
	r := NewRecorder("bench")
	for i := 0; i < 100_000; i++ {
		r.Add(time.Duration((i*2654435761)%1_000_000) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			r.Add(time.Duration(i) * time.Microsecond) // force a re-sort
		}
		if r.Percentile(99) < 0 {
			b.Fatal("negative percentile")
		}
	}
}

// BenchmarkRecorderFirstRead measures the first Percentile of a fresh
// recorder of 10⁵ samples, which sorts every chunk: the read each
// experiment pays once per recorder. Filling the recorder is not timed,
// and its allocations are not counted.
func BenchmarkRecorderFirstRead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRecorder("bench")
		for j := range 100_000 {
			r.Add(time.Duration((j*2654435761)%1_000_000) * time.Microsecond)
		}
		b.StartTimer()
		if r.Percentile(99) < 0 {
			b.Fatal("negative percentile")
		}
	}
}

// BenchmarkRecorderMean measures the running-sum Mean (formerly an O(n)
// scan per call).
func BenchmarkRecorderMean(b *testing.B) {
	r := NewRecorder("bench")
	for i := 0; i < 100_000; i++ {
		r.Add(time.Duration(i) * time.Microsecond)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r.Mean() < 0 {
			b.Fatal("negative mean")
		}
	}
}
