package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestRegionFailoverDeterminism is the chaos determinism suite: a chaotic
// run — partitions severing the trunk mid-flight, a crash storm reclaiming
// the whole secondary fleet, aborted gossip rounds, parked replication
// queues — must render byte-identical tables for every seed at any sweep
// worker count, because every injection is an ordinary simulator event.
// Runs at reduced scale (a 6s window instead of 30s) so 20 seeds × 3
// worker counts stay cheap; the full-scale seed-1 artifact is pinned by
// the golden test and swept by TestSweepWorkerCountInvariance.
func TestRegionFailoverDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos determinism sweeps in -short mode")
	}
	seeds := 20
	if raceEnabled {
		seeds = 5 // the race detector ~10×es simulation time
	}
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	slices.Sort(counts)
	counts = slices.Compact(counts)
	defer sweep.SetWorkers(0)
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		var want string
		for i, w := range counts {
			sweep.SetWorkers(w)
			got := renderAll(runRegionFailoverTables(seed, 0.2, Options{}))
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d diverged at %d workers vs %d:\ngot:\n%s\nwant:\n%s",
					seed, w, counts[0], got, want)
			}
		}
		if !strings.Contains(want, "chaos") {
			t.Fatalf("seed %d: no chaos rows rendered", seed)
		}
	}
}

// TestRegionFailoverReportsAvailabilityHole sanity-checks the headline
// phenomenon at reduced scale: the chaos run's partition phase must lose
// availability (CP reads fail fast in the severed region) and the post
// phase must recover to 100%.
func TestRegionFailoverReportsAvailabilityHole(t *testing.T) {
	res := runRegionFailover(1, true, 0.2, Options{})
	pre, during, post := &res.phases[0], &res.phases[1], &res.phases[2]
	availOf := func(ph *rfPhase) float64 {
		return float64(ph.served) / float64(ph.served+ph.failed)
	}
	if during.failed == 0 {
		t.Fatalf("no requests failed during the partition")
	}
	if a := availOf(during); a > 0.99 || a < 0.80 {
		t.Errorf("partition-phase availability = %.4f, want a visible but partial hole", a)
	}
	if post.failed != 0 {
		t.Errorf("post-heal phase still failing: %d", post.failed)
	}
	if pre.served == 0 || post.served == 0 {
		t.Errorf("phases did not serve: pre %d post %d", pre.served, post.served)
	}
	if res.aborted == 0 {
		t.Errorf("partition aborted no gossip rounds")
	}
	if res.crashedVM == 0 {
		t.Errorf("crash storm reclaimed no VMs")
	}
	// The control run must be fully available throughout.
	ctl := runRegionFailover(1, false, 0.2, Options{})
	for i := range ctl.phases {
		if ctl.phases[i].failed != 0 {
			t.Errorf("control phase %s failed %d requests", rfPhases[i], ctl.phases[i].failed)
		}
	}
}

// BenchmarkRegionFailover times the full-scale experiment end to end —
// both variants plus the straggler comparison, exactly what faasbench
// regenerates.
func BenchmarkRegionFailover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		runRegionFailoverTables(1, 1, Options{})
	}
}
