package stats

import (
	"testing"
	"testing/quick"
	"time"
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
