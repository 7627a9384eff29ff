package chaos

import (
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k   *sim.Kernel
	net *netsim.Network
	eng *Engine
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(3)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	net.SetBuildRegion(1)
	net.SetBuildRegion(0)
	net.ConnectRegions(0, 1, netsim.Gbps(1), netsim.WANUniform(30*time.Millisecond, 2*time.Millisecond))
	return &fixture{k: k, net: net, eng: New(k, rng.Fork())}
}

func TestPartitionAtWindow(t *testing.T) {
	f := newFixture(t)
	f.eng.PartitionAt(f.net, 0, 1, 100*time.Millisecond, 200*time.Millisecond)
	probe := func(at time.Duration, want bool) {
		f.k.Spawn("probe", func(p *sim.Proc) {
			p.Sleep(at)
			if got := f.net.RegionsPartitioned(0, 1); got != want {
				t.Errorf("at %v: partitioned = %v, want %v", at, got, want)
			}
		})
	}
	probe(50*time.Millisecond, false)
	probe(150*time.Millisecond, true)
	probe(350*time.Millisecond, false)
	f.k.Run()
	if n := len(f.eng.Events()); n != 2 {
		t.Errorf("logged %d events, want partition+heal", n)
	}
}

func TestCrashStormDestroysWarmPool(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(5)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	pf := faas.New("lambda", net, rng.Fork(), faas.DefaultConfig(), pricing.Fall2018(), meter)
	if err := pf.Register(faas.Function{Name: "f", MemoryMB: 256,
		Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) { return nil, nil }}); err != nil {
		t.Fatal(err)
	}
	eng := New(k, rng.Fork())
	// Warm a pool of containers, then crash every VM; the pool must empty
	// and the next invocation cold-start on a fresh host.
	var coldAfter bool
	k.Spawn("load", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			if _, _, err := pf.Invoke(p, "f", nil); err != nil {
				t.Errorf("warmup invoke: %v", err)
			}
		}
	})
	eng.CrashStormAt(pf, 64, 10*time.Second)
	k.Spawn("after", func(p *sim.Proc) {
		p.Sleep(11 * time.Second)
		if pf.WarmIdle("f") != 0 {
			t.Errorf("warm pool survived the storm: %d idle", pf.WarmIdle("f"))
		}
		_, rep, err := pf.Invoke(p, "f", nil)
		if err != nil {
			t.Errorf("post-storm invoke: %v", err)
		}
		coldAfter = rep.ColdStart
	})
	k.Run()
	if !coldAfter {
		t.Errorf("post-storm invocation reused a crashed VM's container")
	}
}

// TestCrashStormCountsReclaimedVMs checks the engine's typed crash count
// against what CrashVMs returned: a bounded storm reclaims exactly its n,
// an unbounded one every VM still hosting, and the count sums both.
func TestCrashStormCountsReclaimedVMs(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(5)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	cfg := faas.DefaultConfig()
	cfg.ContainersPerVM = 4
	pf := faas.New("lambda", net, rng.Fork(), cfg, pricing.Fall2018(), meter)
	if err := pf.Register(faas.Function{Name: "f", MemoryMB: 1792,
		Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Proc().Sleep(time.Second)
			return nil, nil
		}}); err != nil {
		t.Fatal(err)
	}
	eng := New(k, rng.Fork())
	// Overlapping invocations warm one container each, spread over VMs.
	for i := 0; i < 16; i++ {
		k.Spawn("load", func(p *sim.Proc) {
			if _, _, err := pf.Invoke(p, "f", nil); err != nil {
				t.Errorf("warmup invoke: %v", err)
			}
		})
	}
	var before [2]int
	for i, at := range []time.Duration{10 * time.Second, 11 * time.Second} {
		k.Spawn("probe", func(p *sim.Proc) {
			p.Sleep(at - time.Nanosecond)
			before[i] = pf.VMCount()
		})
	}
	eng.CrashStormAt(pf, 1, 10*time.Second)
	eng.CrashStormAt(pf, 1<<20, 11*time.Second)
	k.Run()
	if before[0] < 2 {
		t.Fatalf("warmup left %d VMs, want several", before[0])
	}
	if want := 1 + before[1]; eng.CrashedVMs() != want {
		t.Errorf("CrashedVMs = %d, want %d (1 of %d, then all %d left)",
			eng.CrashedVMs(), want, before[0], before[1])
	}
	if pf.VMCount() != 0 {
		t.Errorf("%d VMs survived the unbounded storm", pf.VMCount())
	}
	if n := len(eng.Events()); n != 2 {
		t.Errorf("logged %d events, want one per storm", n)
	}
}

func TestSlowNodeWindow(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(9)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	pf := faas.New("lambda", net, rng.Fork(), faas.DefaultConfig(), pricing.Fall2018(), meter)
	if err := pf.Register(faas.Function{Name: "f", MemoryMB: 1792,
		Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Compute(100 * 1e6) // 100M cycles
			return nil, nil
		}}); err != nil {
		t.Fatal(err)
	}
	eng := New(k, rng.Fork())
	var healthy, slowed, restored time.Duration
	invoke := func(p *sim.Proc) time.Duration {
		_, rep, err := pf.Invoke(p, "f", nil)
		if err != nil {
			t.Errorf("invoke: %v", err)
		}
		return rep.Duration
	}
	k.Spawn("driver", func(p *sim.Proc) {
		invoke(p) // cold start; measure warm invocations only
		healthy = invoke(p)
		node := pf.VMNodes()[0]
		// The window is relative to now; the slowed invoke starts inside it
		// (Compute reads the factor when called, so the full sleep is slow).
		eng.SlowNodeAt(pf, node, 10, 100*time.Millisecond, time.Second)
		p.Sleep(200 * time.Millisecond)
		slowed = invoke(p)
		restored = invoke(p) // window long over by the time the slow invoke ends
	})
	k.Run()
	if slowed < 8*healthy {
		t.Errorf("slowdown ×10: healthy %v, slowed %v", healthy, slowed)
	}
	if restored != healthy {
		t.Errorf("restore failed: healthy %v, restored %v", healthy, restored)
	}
}

func TestSetSlowRegistry(t *testing.T) {
	f := newFixture(t)
	if f.eng.Slow("w3") != 1 {
		t.Errorf("default factor != 1")
	}
	f.eng.SetSlow("w3", 20)
	if f.eng.Slow("w3") != 20 {
		t.Errorf("factor not registered")
	}
	f.eng.SetSlow("w3", 1)
	if f.eng.Slow("w3") != 1 {
		t.Errorf("factor 1 did not clear")
	}
}

// The fault schedule must be a pure function of the seed: two engines with
// the same seed produce identical timelines, observed as identical
// partition states sampled at fine granularity.
func TestRandomPartitionsDeterministic(t *testing.T) {
	trace := func() ([]bool, int) {
		k := sim.NewKernel()
		defer k.Close()
		rng := simrand.New(77)
		net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
		net.SetBuildRegion(1)
		net.SetBuildRegion(0)
		net.ConnectRegions(0, 1, netsim.Gbps(1), netsim.WANUniform(30*time.Millisecond, 2*time.Millisecond))
		eng := New(k, rng.Fork())
		n := eng.RandomPartitions(net, 0, 1, 30*time.Second, 5*time.Second, time.Second)
		var samples []bool
		k.Spawn("sampler", func(p *sim.Proc) {
			for i := 0; i < 3000; i++ {
				p.Sleep(10 * time.Millisecond)
				samples = append(samples, net.RegionsPartitioned(0, 1))
			}
		})
		k.Run()
		return samples, n
	}
	a, na := trace()
	b, nb := trace()
	if na != nb {
		t.Fatalf("outage counts differ: %d vs %d", na, nb)
	}
	if na == 0 {
		t.Fatalf("schedule drew no outages over 30s with mean-up 5s")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at sample %d", i)
		}
	}
	// The trunk must end healthy eventually (all outages heal).
	if a[len(a)-1] {
		t.Errorf("trunk still partitioned at horizon end")
	}
}
