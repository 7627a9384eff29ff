package core

import (
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestMillionUserScaledSmoke runs one scaled-down point (10⁴ users, 20k
// req/s, 1s window) end to end: the aggregated population must drive the
// sharded table to its expected operating point with a few-KB sketch.
func TestMillionUserScaledSmoke(t *testing.T) {
	r := runMillionUser(1, 8, 10_000, 20_000, time.Second)
	if r.completed == 0 || r.submitted < r.completed {
		t.Fatalf("submitted %d / completed %d", r.submitted, r.completed)
	}
	// 8 shards × ~3.8k req/s capacity ≈ 30k/s ceiling: the offered 20k/s
	// should complete nearly in full.
	if r.throughput < 18_000 || r.throughput > 21_000 {
		t.Errorf("throughput %.0f req/s, want ~20k (offered under capacity)", r.throughput)
	}
	if r.p50 <= 0 || r.p99 < r.p50 || r.p999 < r.p99 {
		t.Errorf("percentiles not ordered: p50=%v p99=%v p99.9=%v", r.p50, r.p99, r.p999)
	}
	if r.sketchBytes <= 0 || r.sketchBytes > 64*1024 {
		t.Errorf("sketch footprint %dB, want a few KB", r.sketchBytes)
	}
}

// TestMillionUserSaturation pins the capacity story: under the same
// offered load, fewer shards must complete less. 2 shards (~7.7k/s
// capacity) under 20k/s offered saturate; 8 shards do not.
func TestMillionUserSaturation(t *testing.T) {
	sat := runMillionUser(1, 2, 10_000, 20_000, time.Second)
	if sat.throughput > 9_000 {
		t.Errorf("2 shards completed %.0f req/s under 20k offered, expected saturation near 7.7k",
			sat.throughput)
	}
	if sat.late == 0 {
		t.Error("saturated run reported no late submissions despite the fan-out cap")
	}
}

// TestMillionUserWorkerInvariance extends the sweep-engine determinism
// property to the millionuser family at reduced scale: the same sweep must
// produce identical results at 1 and 4 workers.
func TestMillionUserWorkerInvariance(t *testing.T) {
	defer sweep.SetWorkers(0)
	run := func() []millionResult {
		return sweep.Map([]int{4, 8}, func(_ int, shards int) millionResult {
			return runMillionUser(1, shards, 5_000, 10_000, time.Second)
		})
	}
	sweep.SetWorkers(1)
	want := run()
	sweep.SetWorkers(4)
	got := run()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("point %d diverged across worker counts:\n  W=1: %+v\n  W=4: %+v",
				i, want[i], got[i])
		}
	}
}

// TestRegionScaleSketchMatchesExact runs the regionscale scenario with
// Options.Sketch: the simulation itself is untouched (same arrivals, same
// completions, same bill), and the sketched percentiles stay within the
// configured ≤1% relative error of the exact recorder's.
func TestRegionScaleSketchMatchesExact(t *testing.T) {
	exact := runRegionScale(1, 4, Options{})
	sketched := runRegionScale(1, 4, Options{Sketch: true})

	if sketched.completed != exact.completed || sketched.costPerHr != exact.costPerHr ||
		sketched.hotShare != exact.hotShare {
		t.Fatalf("sketch switch changed the simulation: %+v vs %+v", sketched, exact)
	}
	within := func(name string, got, want time.Duration) {
		t.Helper()
		tol := time.Duration(0.01*float64(want)) + time.Nanosecond
		if diff := got - want; diff < -tol || diff > tol {
			t.Errorf("%s: sketched %v vs exact %v exceeds 1%% bound", name, got, want)
		}
	}
	within("p50", sketched.p50, exact.p50)
	within("p99", sketched.p99, exact.p99)
}
