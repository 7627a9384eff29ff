package simrand

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("%d/100 collisions between different seeds", same)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(7)
	f1 := parent.Fork()
	f2 := parent.Fork()
	if f1.Uint64() == f2.Uint64() {
		t.Error("sibling forks produced identical first output")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestIntnRangeAndPanic(t *testing.T) {
	r := New(5)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 50000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 50000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Errorf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestConstDist(t *testing.T) {
	d := Const(5 * time.Millisecond)
	if got := d.Sample(New(1)); got != 5*time.Millisecond {
		t.Errorf("Const sample = %v", got)
	}
}

func TestUniformDistBounds(t *testing.T) {
	d := Uniform{Lo: time.Millisecond, Hi: 2 * time.Millisecond}
	r := New(19)
	for i := 0; i < 1000; i++ {
		v := d.Sample(r)
		if v < d.Lo || v > d.Hi {
			t.Fatalf("Uniform sample %v out of bounds", v)
		}
	}
	degenerate := Uniform{Lo: time.Second, Hi: time.Second}
	if got := degenerate.Sample(r); got != time.Second {
		t.Errorf("degenerate Uniform = %v", got)
	}
}

func TestLogNormalMedian(t *testing.T) {
	d := LogNormal{Median: 10 * time.Millisecond, Sigma: 0.3}
	r := New(23)
	const n = 20001
	samples := make([]time.Duration, n)
	for i := range samples {
		samples[i] = d.Sample(r)
	}
	// Median of samples should be near the configured median.
	below := 0
	for _, s := range samples {
		if s < d.Median {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("fraction below median = %v, want ~0.5", frac)
	}
}

func TestShiftedFloor(t *testing.T) {
	d := Shifted{Floor: 100 * time.Millisecond, Tail: Exponential{Mean: time.Millisecond}}
	r := New(29)
	for i := 0; i < 1000; i++ {
		if v := d.Sample(r); v < d.Floor {
			t.Fatalf("Shifted sample %v below floor", v)
		}
	}
}

// Property: all distributions produce non-negative durations for any seed.
func TestQuickDistsNonNegative(t *testing.T) {
	dists := []Dist{
		Const(time.Millisecond),
		Uniform{Lo: 0, Hi: time.Second},
		LogNormal{Median: time.Millisecond, Sigma: 0.5},
		Exponential{Mean: time.Millisecond},
		Shifted{Floor: time.Microsecond, Tail: Const(0)},
	}
	prop := func(seed uint64) bool {
		r := New(seed)
		for _, d := range dists {
			for i := 0; i < 20; i++ {
				if d.Sample(r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Shuffle preserves multiset contents.
func TestQuickShufflePreservesElements(t *testing.T) {
	prop := func(xs []int, seed uint64) bool {
		orig := make(map[int]int)
		for _, x := range xs {
			orig[x]++
		}
		cp := append([]int(nil), xs...)
		New(seed).Shuffle(len(cp), func(i, j int) { cp[i], cp[j] = cp[j], cp[i] })
		got := make(map[int]int)
		for _, x := range cp {
			got[x]++
		}
		if len(orig) != len(got) {
			return false
		}
		for k, v := range orig {
			if got[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
