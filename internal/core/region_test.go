package core

import (
	"testing"
	"time"
)

// TestRegionScaleNearLinear is the tentpole's acceptance gate: with each
// shard capacity-limited, quadrupling the shard count must at least triple
// aggregate completed throughput, and the run must be seed-deterministic.
func TestRegionScaleNearLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("region-scale scenario in -short mode")
	}
	r1 := runRegionScale(1, 1, Options{})
	r4 := runRegionScale(1, 4, Options{})

	if ratio := r4.throughput / r1.throughput; ratio < 3 {
		t.Errorf("4-shard speedup = %.2fx (%.0f vs %.0f req/s), want >= 3x",
			ratio, r4.throughput, r1.throughput)
	}
	// One shard saturates well below the offered rate; four shards should
	// land near their aggregate capacity.
	if r1.throughput > 0.35*regionOfferedRate {
		t.Errorf("1-shard throughput %.0f req/s does not saturate (offered %.0f)",
			r1.throughput, regionOfferedRate)
	}
	// Sharding must also collapse queueing delay, not just lift throughput.
	if r4.p99 >= r1.p99 {
		t.Errorf("4-shard p99 %v not below 1-shard p99 %v", r4.p99, r1.p99)
	}
	// Hash routing spreads the key space: no shard should dominate.
	if r4.hotShare > 0.35 {
		t.Errorf("hottest of 4 shards served %.0f%% of requests, want near 25%%",
			r4.hotShare*100)
	}

	if again := runRegionScale(1, 4, Options{}); again != r4 {
		t.Errorf("region scale is nondeterministic: %+v vs %+v", again, r4)
	}
}

// TestRegionScaleTable checks the rendered experiment artifact's shape.
func TestRegionScaleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("region-scale scenario in -short mode")
	}
	tb := RunRegionScale(1, Options{})[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 shard counts", len(tb.Rows))
	}
	p99at1 := dur(t, tb, "p99@1")
	p99at8 := dur(t, tb, "p99@8")
	if p99at1 < time.Second {
		t.Errorf("1-shard p99 = %v, want queueing collapse (>1s)", p99at1)
	}
	if p99at8 > 50*time.Millisecond {
		t.Errorf("8-shard p99 = %v, want service-time-class latency", p99at8)
	}
}
