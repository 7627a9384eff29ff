package stats

import (
	"math"
	"testing"
	"time"

	"repro/internal/simrand"
)

// streamKind draws one sample of the named distribution, covering the
// shapes experiments actually produce: exponential service tails, uniform
// spreads, and the bimodal cold/warm split.
func streamSample(kind int, rng *simrand.RNG) time.Duration {
	switch kind % 3 {
	case 0: // exponential, ~5ms mean
		return time.Duration(rng.ExpFloat64() * 5 * float64(time.Millisecond))
	case 1: // uniform over [0, 1s)
		return time.Duration(rng.Float64() * float64(time.Second))
	default: // bimodal: 90% warm ~1ms, 10% cold ~1s
		if rng.Float64() < 0.9 {
			return time.Duration(rng.ExpFloat64() * float64(time.Millisecond))
		}
		return time.Duration(rng.ExpFloat64() * float64(time.Second))
	}
}

// TestSketchEquivalence is the randomized equivalence property suite:
// seeds 1–20 over mixed exponential/uniform/bimodal streams at 10³–10⁵
// samples (10⁶ in TestSketchEquivalenceMillion) assert that the sketch
// matches the exact recorder exactly on Count/Sum/Max and within the
// relative-error bound on every checked percentile.
func TestSketchEquivalence(t *testing.T) {
	sizes := []int{1_000, 10_000, 100_000}
	for seed := uint64(1); seed <= 20; seed++ {
		n := sizes[int(seed)%len(sizes)]
		checkSketchMatchesExact(t, seed, int(seed), n)
	}
}

// TestSketchEquivalenceMillion extends the equivalence suite to the 10⁶
// sample count the million-user experiment produces per shard.
func TestSketchEquivalenceMillion(t *testing.T) {
	if testing.Short() {
		t.Skip("10⁶-sample equivalence stream in -short mode")
	}
	checkSketchMatchesExact(t, 1, 2, 1_000_000)
}

func checkSketchMatchesExact(t *testing.T, seed uint64, kind, n int) {
	t.Helper()
	rng := simrand.New(seed)
	r := NewRecorder("exact")
	s := NewSketch()
	for i := 0; i < n; i++ {
		d := streamSample(kind, rng)
		r.Add(d)
		s.Add(d)
	}
	if s.Count() != r.Count() || s.Sum() != r.Sum() || s.Max() != r.Max() {
		t.Fatalf("seed %d n %d: exact fields diverged: sketch n=%d sum=%v max=%v vs %v",
			seed, n, s.Count(), s.Sum(), s.Max(), r)
	}
	relErr := sketchRelErr()
	for _, p := range []float64{0, 1, 25, 50, 75, 90, 99, 99.9, 100} {
		ex := r.Percentile(p)
		sk := s.Percentile(p)
		// The sketch's interpolation endpoints are each within relErr of
		// the exact samples at the bracketing ranks, so the interpolated
		// value is within relErr of the larger bracketing sample (plus 1ns
		// of integer truncation).
		rank := p / 100 * float64(r.Count()-1)
		hi := int(math.Ceil(rank))
		if hi >= r.Count() {
			hi = r.Count() - 1
		}
		tol := time.Duration(relErr*float64(r.rank(hi))) + time.Nanosecond
		if diff := sk - ex; diff < -tol || diff > tol {
			t.Errorf("seed %d n %d p%g: sketch %v vs exact %v exceeds tolerance %v",
				seed, n, p, sk, ex, tol)
		}
	}
}

// sketchRelErr is the sketch's percentile error bound, 2^-(subBits+1).
func sketchRelErr() float64 { return 1 / float64(uint64(2)<<subBits) }

func TestEmptySketch(t *testing.T) {
	s := NewSketch()
	if s.Count() != 0 || s.Max() != 0 || s.Sum() != 0 ||
		s.Percentile(0) != 0 || s.Percentile(50) != 0 || s.Percentile(99) != 0 {
		t.Error("empty sketch should return zeros everywhere")
	}
}

func TestSketchRelErrSelection(t *testing.T) {
	// 1% requires subBits=6: 2^-7 = 0.78%; 2^-6 = 1.5625% would miss.
	if got := sketchRelErr(); got != 1.0/128 {
		t.Errorf("relative error bound = %v, want 1/128", got)
	}
}

// Small values (below 2^subBits ns) land in exact unit-width buckets, so
// percentiles there are exact, not just within relErr.
func TestSketchSmallValuesExact(t *testing.T) {
	r := NewRecorder("exact")
	s := NewSketch()
	for i := 0; i < 60; i++ {
		d := time.Duration(i)
		r.Add(d)
		s.Add(d)
	}
	for _, p := range []float64{0, 10, 50, 90, 100} {
		if s.Percentile(p) != r.Percentile(p) {
			t.Errorf("p%g: sketch %v vs exact %v on sub-octave values",
				p, s.Percentile(p), r.Percentile(p))
		}
	}
}

// Negative durations clamp into bucket 0 but the exact envelope bounds
// percentiles below, so p0 reports the true minimum.
func TestSketchNegativeDurations(t *testing.T) {
	s := NewSketch()
	s.Add(-time.Second)
	s.Add(time.Second)
	if s.Max() != time.Second {
		t.Errorf("Max = %v", s.Max())
	}
	if s.Sum() != 0 || s.Count() != 2 {
		t.Errorf("Sum/Count = %v/%d", s.Sum(), s.Count())
	}
	if p := s.Percentile(0); p != -time.Second {
		t.Errorf("p0 = %v, want -1s", p)
	}
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

// BenchmarkSketchAdd pins the steady-state Add path at 0 allocs/op (CI
// gates on this): once the bucket array spans the observed range, Add
// touches only fixed fields.
func BenchmarkSketchAdd(b *testing.B) {
	s := NewSketch()
	rng := simrand.New(1)
	samples := make([]time.Duration, 4096)
	for i := range samples {
		samples[i] = streamSample(2, rng) // bimodal spans the widest range
	}
	for _, d := range samples {
		s.Add(d) // warm the bucket array before measuring
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(samples[i&4095])
	}
}

// BenchmarkSketchPercentile measures the bucket-walk percentile path on a
// sketch holding a million samples.
func BenchmarkSketchPercentile(b *testing.B) {
	s := NewSketch()
	rng := simrand.New(1)
	for i := 0; i < 1_000_000; i++ {
		s.Add(streamSample(0, rng))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Percentile(99) < 0 {
			b.Fatal("negative percentile")
		}
	}
}
