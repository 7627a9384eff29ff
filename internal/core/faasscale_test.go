package core

import (
	"strings"
	"testing"
)

// TestFaaSScaleShape is the tentpole's acceptance gate: cold-start fraction
// and tail latency must fall as provisioned concurrency meets the flash
// crowds, the autoscaler must land near the one-time-cost point, and the
// whole run must be seed-deterministic.
func TestFaaSScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("faas-scale scenario in -short mode")
	}
	r0 := runFaaSScale(1, 0, Options{})
	r32 := runFaaSScale(1, 32, Options{})
	auto := runFaaSScale(1, -1, Options{})

	// The reaper guarantees every burst cold-starts an unprovisioned
	// fleet: a meaningful cold fraction, concentrated in the tail.
	if r0.coldFrac < 0.02 {
		t.Errorf("unprovisioned cold fraction = %.3f, want >= 0.02", r0.coldFrac)
	}
	if r32.coldFrac != 0 {
		t.Errorf("fully provisioned cold fraction = %.3f, want 0", r32.coldFrac)
	}
	if r32.p99 >= r0.p99 {
		t.Errorf("provisioned p99 %v not below unprovisioned p99 %v", r32.p99, r0.p99)
	}
	// The autoscaler pays the first burst cold, then serves warm: a
	// fraction well below the every-burst-cold baseline.
	if auto.coldFrac >= r0.coldFrac/2 {
		t.Errorf("autoscaled cold fraction = %.3f, want < half of %.3f", auto.coldFrac, r0.coldFrac)
	}
	if auto.scaleTarget <= 0 {
		t.Errorf("autoscaler final target = %d, want > 0", auto.scaleTarget)
	}
	// Provisioned capacity is not free: the bill must include keep-warm.
	if r32.costPerHr <= r0.costPerHr {
		t.Errorf("provisioned $/hr %.2f not above unprovisioned %.2f", r32.costPerHr, r0.costPerHr)
	}
	// The offered load drains inside the window at every level.
	for _, r := range []faasScaleResult{r0, r32, auto} {
		if r.submitted == 0 || r.completed != r.submitted {
			t.Errorf("%s: completed %d of %d submitted", r.provisioned, r.completed, r.submitted)
		}
	}

	if again := runFaaSScale(1, -1, Options{}); again != auto {
		t.Errorf("faasscale is nondeterministic: %+v vs %+v", again, auto)
	}
}

// TestFaaSScaleTable checks the rendered artifact's shape.
func TestFaaSScaleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("faas-scale scenario in -short mode")
	}
	tb := RunFaaSScale(1, Options{})[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 3 fixed levels + auto", len(tb.Rows))
	}
	if !strings.HasPrefix(tb.Rows[3][0], "auto") {
		t.Errorf("last row = %q, want the autoscaled sweep point", tb.Rows[3][0])
	}
	p99at0 := dur(t, tb, "p99@0")
	p99at32 := dur(t, tb, "p99@32")
	if p99at32 >= p99at0 {
		t.Errorf("p99 did not fall with provisioning: %v at 32 vs %v at 0", p99at32, p99at0)
	}
	if cold := metric(t, tb, "cold@32"); cold != 0 {
		t.Errorf("cold starts at 32 provisioned = %.2f%%, want 0%%", cold)
	}
}
