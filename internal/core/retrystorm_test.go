package core

import (
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/sweep"
)

// TestRetryStormDeterminism: a retry storm — deadline-abandoned attempts,
// backoff jitter, breaker trips, pool exhaustion, admission sheds — must
// render byte-identical tables for every seed at any sweep worker count.
// Runs at reduced scale (a 6s window instead of 30s) so 20 seeds × 3
// worker counts stay cheap; the full-scale seed-1 artifact is pinned by
// the golden test and swept by TestSweepWorkerCountInvariance.
func TestRetryStormDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("retry-storm determinism sweeps in -short mode")
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
			got := renderAll(runRetryStormTables(seed, 0.2))
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d diverged at %d workers vs %d:\ngot:\n%s\nwant:\n%s",
					seed, w, counts[0], got, want)
			}
		}
		if !strings.Contains(want, "naive-retry") {
			t.Fatalf("seed %d: no naive-retry rows rendered", seed)
		}
	}
}

// TestRetryStormSchedulePinned pins the schedule of each storm-table
// kernel at reduced scale: the hash over every consumed event's (at, seq)
// and the number of events consumed, whether the kernel loop or a parking
// process consumed them. A change to how requests and attempts run that
// keeps these keeps the event order, even where every rendered figure
// would hide a move. The values were taken when requests and attempts
// still ran as blocking processes. Now they are stepped, and only the
// chaos engine's process resumes a coroutine: three times per kernel.
func TestRetryStormSchedulePinned(t *testing.T) {
	want := map[string]struct {
		hash     uint64
		consumed uint64
	}{
		"no-retry":    {0x8030ebaff8fa56b3, 19724},
		"naive-retry": {0x21632029deb50013, 20787},
		"full-policy": {0xc7b0527f46261077, 18279},
		"full+hedge":  {0x8eb6125436c70ce7, 18296},
	}
	for _, pol := range rsPolicies() {
		s := runRetryStorm(1, pol, 0.2).sched
		w := want[pol.name]
		if got := s.Dispatched + s.Handoffs; s.Hash != w.hash || got != w.consumed {
			t.Errorf("%s: hash %#x, %d events consumed; want %#x, %d",
				pol.name, s.Hash, got, w.hash, w.consumed)
		}
		if s.Resumes != 3 {
			t.Errorf("%s: %d coroutine resumes, want the chaos process's 3", pol.name, s.Resumes)
		}
	}
}

// An attempt record stays two words: the four policies' storms peak at
// about 3,100 of them, and a third word would add about 25 KB to every
// run's allocations.
func TestAttemptRecordIsTwoWords(t *testing.T) {
	if n := unsafe.Sizeof(rsAttempt{}); n != 16 {
		t.Errorf("rsAttempt is %d bytes, want 16", n)
	}
}

// TestRetryStormShowsMetastableCollapse sanity-checks the headline
// phenomenon at full scale: naive retries must make both the fault phase
// and the post-heal phase strictly worse than not retrying at all (the
// amplified backlog outlives the fault — the metastable signature), while
// the full policy must beat no-retry on availability in every phase and
// restore the post-heal tail to the healthy baseline.
func TestRetryStormShowsMetastableCollapse(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale retry-storm run in -short mode")
	}
	pols := rsPolicies()
	byName := map[string]rsResult{}
	for _, pol := range pols {
		byName[pol.name] = runRetryStorm(1, pol, 1)
	}
	avail := func(r rsResult, phase int) float64 { return r.phases[phase].availPct() / 100 }
	nr, nv, full := byName["no-retry"], byName["naive-retry"], byName["full-policy"]

	// Healthy phase: everyone serves everything.
	for name, r := range byName {
		if a := avail(r, 0); a < 0.999 {
			t.Errorf("%s pre-fault availability = %.4f, want ~1", name, a)
		}
	}
	// Naive retries amplify the outage: strictly worse during AND after.
	if avail(nv, 1) >= avail(nr, 1) {
		t.Errorf("naive during-fault availability %.4f not worse than no-retry %.4f",
			avail(nv, 1), avail(nr, 1))
	}
	if avail(nv, 2) >= avail(nr, 2) {
		t.Errorf("naive post-heal availability %.4f not worse than no-retry %.4f (no metastable overhang)",
			avail(nv, 2), avail(nr, 2))
	}
	// The collapse spreads beyond the hot shard: the client pool backlogs
	// (cold traffic starves) and arrivals give up, which never happens
	// without retries.
	if nv.gaveUp == 0 || nv.poolQ[1] == 0 {
		t.Errorf("naive retries did not exhaust the client pool (gaveUp %d, peak backlog %d)",
			nv.gaveUp, nv.poolQ[1])
	}
	if nr.gaveUp != 0 {
		t.Errorf("no-retry saw %d pool give-ups; the collapse should need retries", nr.gaveUp)
	}
	// The full policy dominates no-retry on availability in every phase…
	for phase := range faultPhases {
		if avail(full, phase) < avail(nr, phase) {
			t.Errorf("full-policy %s availability %.4f below no-retry %.4f",
				faultPhases[phase], avail(full, phase), avail(nr, phase))
		}
	}
	// …and its post-heal tail returns to baseline while no-retry is still
	// draining the backlog of abandoned attempts.
	if fp, np := full.phases[2].rec.Percentile(99), nr.phases[2].rec.Percentile(99); fp >= np {
		t.Errorf("full-policy post-heal p99 %v not below no-retry %v", fp, np)
	}
	// The policy machinery actually engaged: breaker trips, server sheds,
	// bounded retries; and the hot-shard queue stayed bounded.
	if full.trips == 0 || full.shed == 0 || full.cstats.Retries == 0 {
		t.Errorf("full policy idle: trips %d, shed %d, retries %d",
			full.trips, full.shed, full.cstats.Retries)
	}
	if q := full.hotQ[1]; q > rsMaxQueue {
		t.Errorf("full-policy hot-shard queue peaked at %d, admission bound is %d", q, rsMaxQueue)
	}
	if nv.hotQ[2] <= nr.hotQ[2]/2 {
		t.Errorf("naive post-heal backlog %d not deeper than no-retry's %d",
			nv.hotQ[2], nr.hotQ[2])
	}
}

// TestHotTenantJailProtectsPoliteTenants sanity-checks the second table:
// jailing the abusive caller must raise polite throughput and cut the
// polite tail, while the abuser eats fast rejections.
func TestHotTenantJailProtectsPoliteTenants(t *testing.T) {
	if testing.Short() {
		t.Skip("hot-tenant runs in -short mode")
	}
	off := runHotTenant(1, false, 0.5)
	on := runHotTenant(1, true, 0.5)
	if off.abuser.failed != 0 || off.jailed != 0 {
		t.Fatalf("jail off still rejected: abuser %d, server %d", off.abuser.failed, off.jailed)
	}
	if on.jailed == 0 || on.abuser.failed == 0 {
		t.Fatalf("jail on rejected nothing (server %d, abuser %d)", on.jailed, on.abuser.failed)
	}
	if on.polite.failed != 0 {
		t.Errorf("jail caught %d polite requests; it must be per-caller", on.polite.failed)
	}
	if on.polite.served <= off.polite.served {
		t.Errorf("jail did not raise polite throughput: %d -> %d", off.polite.served, on.polite.served)
	}
	if onP, offP := on.polite.rec.Percentile(99), off.polite.rec.Percentile(99); onP >= offP {
		t.Errorf("jail did not cut the polite tail: p99 %v -> %v", offP, onP)
	}
}

// BenchmarkRetryStorm times the full-scale experiment end to end — all
// four policy variants plus the hot-tenant comparison, exactly what
// faasbench regenerates. It runs its sweep points one at a time, so its
// allocation count does not depend on which points overlap: at more than
// one worker, overlapping points miss the coroutine pool (see
// sim.Sched.Coroutines) and allocate coroutines the run would otherwise
// have reused. Only the chaos engine's processes hold coroutines now, so
// that is about 10 allocations at two workers.
func BenchmarkRetryStorm(b *testing.B) {
	defer sweep.SetWorkers(0)
	sweep.SetWorkers(1)
	for i := 0; i < b.N; i++ {
		runRetryStormTables(1, 1)
	}
}
