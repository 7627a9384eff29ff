package future

import (
	"testing"
	"time"

	"repro/internal/msgnet"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k     *sim.Kernel
	pf    *Platform
	mesh  *msgnet.Mesh
	meter *pricing.Meter
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(123)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	mesh := msgnet.NewMesh(net, rng.Fork())
	meter := &pricing.Meter{}
	pf := New(net, mesh, rng.Fork(), pricing.Fall2018(), meter)
	return &fixture{k: k, pf: pf, mesh: mesh, meter: meter}
}

func TestSpawnTakesPlacementDelay(t *testing.T) {
	f := newFixture(t)
	var at sim.Time
	f.k.Spawn("d", func(p *sim.Proc) {
		a := f.pf.SpawnAgent(p, "a1", 512, nil)
		at = p.Now()
		if a.Node().ID() != "agent/a1" || a.Endpoint() == nil {
			t.Error("agent not initialized")
		}
	})
	f.k.Run()
	if at < 110*time.Millisecond || at > 140*time.Millisecond {
		t.Errorf("placement took %v, want microVM-class 110-140ms", at)
	}
}

func TestColocatedReadIsPageCacheSpeed(t *testing.T) {
	f := newFixture(t)
	var local, remote sim.Time
	f.k.Spawn("d", func(p *sim.Proc) {
		ds := f.pf.CreateDataSet("corpus", 5)
		ds.AddExtent("batch", 100e6)
		near := f.pf.SpawnAgent(p, "near", 640, ds)
		far := f.pf.SpawnAgent(p, "far", 640, nil)
		start := p.Now()
		if err := near.Read(p, ds, "batch"); err != nil {
			t.Errorf("near read: %v", err)
		}
		local = p.Now() - start
		start = p.Now()
		if err := far.Read(p, ds, "batch"); err != nil {
			t.Errorf("far read: %v", err)
		}
		remote = p.Now() - start
	})
	f.k.Run()
	// Local: 100MB at 2.5GB/s = 40ms (the paper's EBS page-cache figure).
	if local < 38*time.Millisecond || local > 42*time.Millisecond {
		t.Errorf("co-located read = %v, want ~40ms", local)
	}
	// Remote: 100MB through a 10Gbps NIC = 80ms plus propagation.
	if remote < 2*local {
		t.Errorf("remote read %v should be well above local %v", remote, local)
	}
}

func TestAgentsAreAddressable(t *testing.T) {
	f := newFixture(t)
	var reply []byte
	f.k.Spawn("d", func(p *sim.Proc) {
		server := f.pf.SpawnAgent(p, "server", 512, nil)
		client := f.pf.SpawnAgent(p, "client", 512, nil)
		server.Endpoint().Serve(func(sp *sim.Proc, pk msgnet.Packet) []byte {
			return append([]byte("re:"), pk.Payload...)
		})
		var err error
		reply, err = client.Endpoint().Call(p, "server", []byte("ping"), 0)
		if err != nil {
			t.Errorf("Call: %v", err)
		}
	})
	f.k.Run()
	if string(reply) != "re:ping" {
		t.Errorf("reply = %q", reply)
	}
}

func TestPayPerUseBilling(t *testing.T) {
	f := newFixture(t)
	f.k.Spawn("d", func(p *sim.Proc) {
		a := f.pf.SpawnAgent(p, "worker", 1024, nil)
		p.Sleep(100 * time.Second)
		cost := a.Stop(p)
		// ~100s at 1GB x $0.00001667/GB-s.
		if cost < 0.0016 || cost > 0.0018 {
			t.Errorf("cost = %v, want ~$0.00167", cost)
		}
		if a.Stop(p) != 0 {
			t.Error("double Stop should charge nothing")
		}
		if err := a.Compute(p, 1); err != ErrStopped {
			t.Errorf("Compute after stop: %v", err)
		}
		if err := a.Read(p, f.pf.CreateDataSet("x", 0), "k"); err != ErrStopped {
			t.Errorf("Read after stop: %v", err)
		}
	})
	f.k.Run()
	if f.meter.Cost("agent.gbsec") <= 0 {
		t.Error("meter did not record agent compute")
	}
}

func TestComputeDecoupledFromMemory(t *testing.T) {
	f := newFixture(t)
	var small, large sim.Time
	f.k.Spawn("d", func(p *sim.Proc) {
		a := f.pf.SpawnAgent(p, "small", 640, nil)
		b := f.pf.SpawnAgent(p, "large", 3008, nil)
		start := p.Now()
		a.Compute(p, 100e6)
		small = p.Now() - start
		start = p.Now()
		b.Compute(p, 100e6)
		large = p.Now() - start
	})
	f.k.Run()
	if small != large {
		t.Errorf("compute rate tied to memory: %v vs %v", small, large)
	}
	// 100MB at 1000MB/s = 0.1s, matching the m4.large optimizer step.
	if small < 99*time.Millisecond || small > 101*time.Millisecond {
		t.Errorf("compute = %v, want ~0.1s", small)
	}
}

func TestMissingExtent(t *testing.T) {
	f := newFixture(t)
	f.k.Spawn("d", func(p *sim.Proc) {
		ds := f.pf.CreateDataSet("empty", 3)
		a := f.pf.SpawnAgent(p, "reader", 512, ds)
		if err := a.Read(p, ds, "nope"); err == nil {
			t.Error("read of missing extent succeeded")
		}
	})
	f.k.Run()
}
