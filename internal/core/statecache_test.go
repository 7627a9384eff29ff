package core

import (
	"testing"
	"time"
)

// TestStateCacheBeatsStorageRoundTrips is the tentpole's acceptance gate:
// colocated CRDT reads must be at least 10x below the uncached
// DynamoDB-class baseline at the tail, the measured staleness window must
// be bounded by the gossip cadence, and the run must be seed-deterministic.
func TestStateCacheBeatsStorageRoundTrips(t *testing.T) {
	if testing.Short() {
		t.Skip("statecache scenario in -short mode")
	}
	uncached := runStateCache(1, 4, 0, false)
	cached := runStateCache(1, 4, 200*time.Millisecond, true)

	if cached.p99 <= 0 || uncached.p99 <= 0 {
		t.Fatalf("degenerate percentiles: cached %v, uncached %v", cached.p99, uncached.p99)
	}
	if ratio := float64(uncached.p99) / float64(cached.p99); ratio < 10 {
		t.Errorf("cached read p99 %v only %.1fx below uncached %v, want >= 10x",
			cached.p99, ratio, uncached.p99)
	}
	// The staleness window must be reported and bounded: convergence is
	// a few gossip rounds, not unbounded drift.
	if cached.staleP99 <= 0 {
		t.Error("no staleness window measured")
	}
	if cached.staleP99 > 10*cached.interval {
		t.Errorf("staleness p99 %v not bounded by gossip cadence %v",
			cached.staleP99, cached.interval)
	}
	// Local-latency ops let the same workers push more ops through.
	if cached.throughput <= uncached.throughput {
		t.Errorf("cached throughput %.0f not above uncached %.0f",
			cached.throughput, uncached.throughput)
	}

	if again := runStateCache(1, 4, 200*time.Millisecond, true); again != cached {
		t.Errorf("statecache scenario is nondeterministic: %+v vs %+v", again, cached)
	}
}

// TestStateCacheStalenessTracksGossipInterval: tightening the gossip
// cadence must tighten the measured staleness window.
func TestStateCacheStalenessTracksGossipInterval(t *testing.T) {
	if testing.Short() {
		t.Skip("statecache sweep in -short mode")
	}
	fast := runStateCache(1, 4, 50*time.Millisecond, true)
	slow := runStateCache(1, 4, time.Second, true)
	if fast.staleP99 >= slow.staleP99 {
		t.Errorf("staleness p99 %v at 50ms gossip not below %v at 1s",
			fast.staleP99, slow.staleP99)
	}
}

// TestStateCacheSchedulePinned pins the schedule of each seed-1 grid
// kernel, as TestFaaSScaleSchedulePinned does: the hash over every
// consumed event's (at, seq) and the number of events consumed.
func TestStateCacheSchedulePinned(t *testing.T) {
	if testing.Short() {
		t.Skip("statecache sweep in -short mode")
	}
	for _, c := range []struct {
		workers  int
		interval time.Duration
		cached   bool
		hash     uint64
		consumed uint64
	}{
		{4, 0, false, 0x9d0d63d93ec942e1, 19376},
		{2, 200 * time.Millisecond, true, 0x4538f9c37cd095f6, 23605},
		{4, 200 * time.Millisecond, true, 0x7ace41c5f2776494, 45952},
		{8, 200 * time.Millisecond, true, 0x1f5a42f0291dbfea, 93697},
		{4, 50 * time.Millisecond, true, 0xdf3500e462f95b2f, 51910},
		{4, time.Second, true, 0x22dfabe369ef4a9f, 44400},
	} {
		s := runStateCache(1, c.workers, c.interval, c.cached).sched
		if got := s.Dispatched + s.Handoffs; s.Hash != c.hash || got != c.consumed {
			t.Errorf("%d workers, gossip %v, cached %v: hash %#x, %d events consumed; want %#x, %d",
				c.workers, c.interval, c.cached, s.Hash, got, c.hash, c.consumed)
		}
	}
}
