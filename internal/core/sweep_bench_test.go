package core

import (
	"testing"
	"time"

	"repro/internal/simrand"
	"repro/internal/sweep"
)

// stateCacheGrid is the full replicas × gossip benchmark grid: 3×3 cached
// configurations, each an independent simulation whose seed derives from
// (base seed 1, point index) via simrand.Derive. Unlike the statecache
// experiment table (which keeps its golden-pinned 6 points), this grid is
// the wall-clock yardstick for the sweep engine.
func stateCacheGrid() []struct {
	workers  int
	interval time.Duration
} {
	replicas := []int{2, 4, 8}
	gossip := []time.Duration{50 * time.Millisecond, 200 * time.Millisecond, time.Second}
	grid := make([]struct {
		workers  int
		interval time.Duration
	}, 0, len(replicas)*len(gossip))
	for _, r := range replicas {
		for _, g := range gossip {
			grid = append(grid, struct {
				workers  int
				interval time.Duration
			}{r, g})
		}
	}
	return grid
}

// runStateCacheGrid sweeps the 3×3 grid at the given worker count.
func runStateCacheGrid(workers int) []stateCacheResult {
	grid := stateCacheGrid()
	return sweep.PointsN(workers, len(grid), func(i int) stateCacheResult {
		return runStateCache(simrand.Derive(1, i), grid[i].workers, grid[i].interval, true)
	})
}

// TestStateCacheGridWorkerInvariance: the Derive-seeded benchmark grid
// produces identical measurements sequentially and in parallel.
func TestStateCacheGridWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("3×3 statecache grid in -short mode")
	}
	seq := runStateCacheGrid(1)
	par := runStateCacheGrid(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("grid point %d diverged: sequential %+v, parallel %+v", i, seq[i], par[i])
		}
	}
}

// BenchmarkSweepStateCacheSequential is the single-core twin of the
// parallel sweep benchmark: the full 3×3 statecache grid on one worker.
// ns/op is wall time per grid.
func BenchmarkSweepStateCacheSequential(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := runStateCacheGrid(1); len(res) != 9 {
			b.Fatal("incomplete grid")
		}
	}
	b.ReportMetric(1, "workers")
}

// BenchmarkSweepStateCacheParallel runs the same 3×3 grid at the resolved
// sweep worker count (GOMAXPROCS unless -workers/SWEEP_WORKERS override).
// Compare ns/op against the sequential twin for the sweep engine's
// wall-clock speedup; results are byte-identical either way.
func BenchmarkSweepStateCacheParallel(b *testing.B) {
	w := sweep.Workers()
	for i := 0; i < b.N; i++ {
		if res := runStateCacheGrid(w); len(res) != 9 {
			b.Fatal("incomplete grid")
		}
	}
	b.ReportMetric(float64(w), "workers")
}
