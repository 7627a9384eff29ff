package service

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

func newFrontend(t *testing.T, concurrency int) (*sim.Kernel, *Frontend, *netsim.Node, *pricing.Meter) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(11)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	fe := NewFrontend("svc", net, 9, rng.Fork(), simrand.Const(4*time.Millisecond),
		netsim.Gbps(100), pricing.Fall2018(), meter)
	if concurrency > 0 {
		fe.LimitConcurrency(concurrency)
	}
	caller := net.NewNode("caller", 0, netsim.Gbps(10))
	return k, fe, caller, meter
}

func TestRoundTripTimingAndStats(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	var elapsed sim.Time
	k.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		fe.RoundTrip(p, caller, 0)
		elapsed = p.Now() - start
	})
	k.Run()
	// Cross-rack: 550-710µs each way plus a constant 4ms service time.
	lo := sim.Time(4*time.Millisecond + 2*550*time.Microsecond)
	hi := sim.Time(4*time.Millisecond + 2*710*time.Microsecond)
	if elapsed < lo || elapsed > hi {
		t.Errorf("round trip took %v, want within [%v, %v]", elapsed, lo, hi)
	}
	st := fe.Stats()
	if st.Requests != 1 || st.Busy != 4*time.Millisecond {
		t.Errorf("stats = %+v, want 1 request / 4ms busy", st)
	}
}

func TestRoundTripExtraCountsAsBusy(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	k.Spawn("c", func(p *sim.Proc) {
		fe.RoundTrip(p, caller, 2*time.Millisecond)
	})
	k.Run()
	if st := fe.Stats(); st.Busy != 6*time.Millisecond {
		t.Errorf("busy = %v, want 6ms (service + extra)", st.Busy)
	}
}

func TestSplitLegsMatchRoundTrip(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	var split sim.Time
	k.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		svc := fe.SampleOp()
		p.Sleep(fe.InLeg(caller, svc/2))
		p.Sleep(fe.OutLeg(caller, svc/2))
		split = p.Now() - start
	})
	k.Run()
	lo := sim.Time(4*time.Millisecond + 2*550*time.Microsecond)
	hi := sim.Time(4*time.Millisecond + 2*710*time.Microsecond)
	if split < lo || split > hi {
		t.Errorf("split round trip took %v, want within [%v, %v]", split, lo, hi)
	}
}

func TestLimitConcurrencyQueues(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 1)
	finish := make([]sim.Time, 3)
	for i := 0; i < 3; i++ {
		k.Spawn("c", func(p *sim.Proc) {
			fe.RoundTrip(p, caller, 0)
			finish[i] = p.Now()
		})
	}
	k.Run()
	// Three constant 4ms service times through one slot must serialize:
	// last completion >= 12ms of pure service time.
	last := finish[0]
	for _, f := range finish[1:] {
		if f > last {
			last = f
		}
	}
	if last < sim.Time(12*time.Millisecond) {
		t.Errorf("3 requests through 1 slot finished by %v, want >= 12ms", last)
	}
	if fe.QueueDepth() != 0 {
		t.Errorf("queue depth after drain = %d", fe.QueueDepth())
	}
}

func TestChargeFlowsToMeter(t *testing.T) {
	_, fe, _, meter := newFrontend(t, 0)
	fe.Charge("x.req", 3, 2)
	fe.ChargeCost("x.lump", 5)
	if meter.Count("x.req") != 3 || meter.Cost("x.req") != 6 {
		t.Errorf("charge: count=%d cost=%v", meter.Count("x.req"), meter.Cost("x.req"))
	}
	if meter.Cost("x.lump") != 5 {
		t.Errorf("lump cost = %v", meter.Cost("x.lump"))
	}
}

// BenchmarkRoundTripContended measures one round trip through a frontend
// with two slots and a shed bound of four waiters, under 16 closed-loop
// clients: every admission outcome (served at once, queued for a slot,
// shed) runs as kernel steps. Gated at 0 allocs/op in CI.
func BenchmarkRoundTripContended(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(1)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	fe := NewFrontend("svc", net, 9, rng.Fork(), simrand.LogNormal{Median: time.Millisecond, Sigma: 0.5},
		netsim.Gbps(100), pricing.Fall2018(), &pricing.Meter{})
	fe.LimitConcurrency(2)
	fe.SetAdmission(AdmissionConfig{MaxQueue: 4})
	caller := net.NewNode("caller", 0, netsim.Gbps(10))
	left := b.N
	for i := 0; i < 16; i++ {
		k.Spawn("client", func(p *sim.Proc) {
			for left > 0 {
				left--
				_ = fe.RoundTripErr(p, caller, 0)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if st := fe.Stats(); b.N >= 1000 && st.Shed == 0 {
		b.Fatalf("no request was shed in %d round trips: stats %+v", b.N, st)
	}
}
