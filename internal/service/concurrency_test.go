package service

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// Staggered arrivals through a single slot must be served in arrival
// order: the sim.Resource wait queue is FIFO, and nothing on the
// round-trip path can overtake.
func TestLimitConcurrencyFIFOOrder(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 1)
	const n = 6
	var order []int
	for i := 0; i < n; i++ {
		k.Spawn("c", func(p *sim.Proc) {
			// 1ms stagger dwarfs the 550-710µs propagation jitter, so
			// arrival order is the spawn order.
			p.Sleep(sim.Time(i) * time.Millisecond)
			fe.RoundTrip(p, caller, 0)
			order = append(order, i)
		})
	}
	k.Run()
	if len(order) != n {
		t.Fatalf("served %d requests, want %d", len(order), n)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("completion order %v, want FIFO 0..%d", order, n-1)
		}
	}
}

// QueueDepth must track the number of waiters exactly as the single slot
// drains a backlog.
func TestQueueDepthTracksBacklog(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 1)
	for i := 0; i < 4; i++ {
		k.Spawn("c", func(p *sim.Proc) {
			fe.RoundTrip(p, caller, 0)
		})
	}
	// All four arrive within ~0.7ms; service is a constant 4ms, so
	// completions land near 4.6ms, 8.6ms, 12.6ms, 16.6ms. Probe between
	// them.
	want := map[time.Duration]int{
		2 * time.Millisecond:  3,
		6 * time.Millisecond:  2,
		10 * time.Millisecond: 1,
		14 * time.Millisecond: 0,
	}
	k.Spawn("observer", func(p *sim.Proc) {
		for _, at := range []time.Duration{2, 6, 10, 14} {
			at *= time.Millisecond
			p.Sleep(at - p.Now())
			if got := fe.QueueDepth(); got != want[at] {
				t.Errorf("QueueDepth at %v = %d, want %d", at, got, want[at])
			}
		}
	})
	k.Run()
}

// The split-leg path (SampleOp + InLeg/OutLeg) must bypass the
// concurrency cap: a long poll parked at the front end may not hold a
// service slot, and conversely a busy slot may not delay a poller.
func TestSplitLegBypassesConcurrencyCap(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 1)
	var pollerDone, occupierDone sim.Time
	k.Spawn("occupier", func(p *sim.Proc) {
		fe.RoundTrip(p, caller, 20*time.Millisecond) // slot busy ~24ms
		occupierDone = p.Now()
	})
	k.Spawn("poller", func(p *sim.Proc) {
		p.Sleep(2 * time.Millisecond) // start while the slot is held
		svc := fe.SampleOp()
		p.Sleep(fe.InLeg(caller, svc/2))
		if got := fe.QueueDepth(); got != 0 {
			t.Errorf("split-leg request counted as a waiter: QueueDepth = %d", got)
		}
		p.Sleep(fe.OutLeg(caller, svc/2))
		pollerDone = p.Now()
	})
	k.Run()
	if pollerDone >= occupierDone {
		t.Errorf("split-leg poller finished at %v, after the slot holder (%v) — cap not bypassed",
			pollerDone, occupierDone)
	}
	// ~2ms start + 4ms service + two propagation legs.
	if pollerDone > 8*time.Millisecond {
		t.Errorf("poller took until %v, want ~7.3ms (never queued)", pollerDone)
	}
}
