package compute

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k     *sim.Kernel
	prov  *Provider
	meter *pricing.Meter
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(5)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	prov := NewProvider(net, rng.Fork(), pricing.Fall2018(), meter)
	return &fixture{k: k, prov: prov, meter: meter}
}

func TestLaunchTakesBootDelay(t *testing.T) {
	f := newFixture(t)
	var bootDone sim.Time
	f.k.Spawn("ops", func(p *sim.Proc) {
		inst := f.prov.Launch(p, M4Large, 0)
		bootDone = p.Now()
		if inst.Node() == nil || inst.Node().ID() == "" {
			t.Error("instance not initialized")
		}
	})
	f.k.Run()
	if bootDone < 45*time.Second || bootDone > 90*time.Second {
		t.Errorf("boot took %v, want 45-90s", bootDone)
	}
}

// Calibration: m4.large crunches a 100MB batch in the paper's 0.10s.
func TestM4LargeComputeMatchesPaperOptimizerStep(t *testing.T) {
	f := newFixture(t)
	var elapsed sim.Time
	f.k.Spawn("ops", func(p *sim.Proc) {
		inst := f.prov.Launch(p, M4Large, 0)
		start := p.Now()
		if err := inst.Compute(p, 100e6); err != nil {
			t.Errorf("Compute: %v", err)
		}
		elapsed = p.Now() - start
	})
	f.k.Run()
	if math.Abs(elapsed.Seconds()-0.10) > 0.005 {
		t.Errorf("100MB compute = %v, paper reports 0.10s", elapsed)
	}
}

// Calibration: a warm 100MB EBS read takes the paper's 0.04s.
func TestWarmVolumeReadMatchesPaper(t *testing.T) {
	f := newFixture(t)
	var cold, warm sim.Time
	f.k.Spawn("ops", func(p *sim.Proc) {
		inst := f.prov.Launch(p, M4Large, 0)
		start := p.Now()
		inst.Volume().Read(p, "batch-0", 100e6)
		cold = p.Now() - start
		start = p.Now()
		inst.Volume().Read(p, "batch-0", 100e6)
		warm = p.Now() - start
	})
	f.k.Run()
	if math.Abs(warm.Seconds()-0.04) > 0.005 {
		t.Errorf("warm 100MB read = %v, paper reports 0.04s", warm)
	}
	if cold < 500*time.Millisecond {
		t.Errorf("cold 100MB read = %v, want >=0.5s at ~160MB/s", cold)
	}
}

func TestWarmPreStaging(t *testing.T) {
	f := newFixture(t)
	var read sim.Time
	f.k.Spawn("ops", func(p *sim.Proc) {
		inst := f.prov.Launch(p, M4Large, 0)
		inst.Volume().Warm("data")
		if !inst.Volume().warm["data"] {
			t.Error("Warm did not mark extent")
		}
		start := p.Now()
		inst.Volume().Read(p, "data", 100e6)
		read = p.Now() - start
	})
	f.k.Run()
	if read > 50*time.Millisecond {
		t.Errorf("pre-staged read = %v, want warm-speed", read)
	}
}

func TestWriteWarmsExtent(t *testing.T) {
	f := newFixture(t)
	f.k.Spawn("ops", func(p *sim.Proc) {
		inst := f.prov.Launch(p, M4Large, 0)
		inst.Volume().Write(p, "out", 1e6)
		if !inst.Volume().warm["out"] {
			t.Error("write did not warm extent")
		}
	})
	f.k.Run()
}

func TestBillingPerSecond(t *testing.T) {
	f := newFixture(t)
	f.k.Spawn("ops", func(p *sim.Proc) {
		inst := f.prov.Launch(p, M4Large, 0)
		boot := p.Now()
		p.Sleep(time.Hour - boot) // run until exactly 1h of uptime... plus boot
		_ = inst.Terminate(p)
		// Uptime includes boot; at $0.10/hr the charge is uptime-based.
		want := pricing.USD(0.10)
		got := f.meter.Cost("ec2.m4.large")
		if math.Abs(float64(got-want)) > 1e-9 {
			t.Errorf("1h m4.large cost = %v, want %v", got, want)
		}
	})
	f.k.Run()
}

func TestDoubleTerminate(t *testing.T) {
	f := newFixture(t)
	f.k.Spawn("ops", func(p *sim.Proc) {
		inst := f.prov.Launch(p, M5Large, 0)
		if err := inst.Terminate(p); err != nil {
			t.Errorf("first Terminate: %v", err)
		}
		if err := inst.Terminate(p); !errors.Is(err, ErrTerminated) {
			t.Errorf("second Terminate: %v", err)
		}
		if err := inst.Compute(p, 100); !errors.Is(err, ErrTerminated) {
			t.Errorf("Compute after terminate: %v", err)
		}
		if err := inst.Volume().Read(p, "x", 1); !errors.Is(err, ErrTerminated) {
			t.Errorf("Read after terminate: %v", err)
		}
	})
	f.k.Run()
}

func TestInstanceIDsUnique(t *testing.T) {
	f := newFixture(t)
	ids := map[string]bool{}
	f.k.Spawn("ops", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			inst := f.prov.Launch(p, M5Large, i)
			id := inst.Node().ID()
			if ids[id] {
				t.Errorf("duplicate instance id %s", id)
			}
			ids[id] = true
		}
	})
	f.k.Run()
	if len(ids) != 5 {
		t.Errorf("launched %d unique instances, want 5", len(ids))
	}
}

func TestCostSoFarMonotone(t *testing.T) {
	f := newFixture(t)
	f.k.Spawn("ops", func(p *sim.Proc) {
		inst := f.prov.Launch(p, M5Large, 0)
		c1 := inst.CostSoFar(p.Now())
		p.Sleep(time.Minute)
		c2 := inst.CostSoFar(p.Now())
		if c2 <= c1 {
			t.Errorf("cost did not accrue: %v then %v", c1, c2)
		}
	})
	f.k.Run()
}
