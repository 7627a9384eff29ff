package statecache

// WAN-tier property tests: the statecache cluster stretched across netsim
// regions, with its backing store pinned in region 0 and replicas spread
// behind high-latency trunks that sever and heal mid-run. Partitions are
// real topology events (zero-capacity trunks), so they exercise the
// mid-flight sever path and the flush reachability gate too.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// newWANFixture builds a cluster whose backing store lives in region 0
// with one replica node per region (regions ≥ 2), joined by 30ms trunks.
func newWANFixture(t *testing.T, cfg Config, seed uint64, regions int) (*fixture, []*Cache) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(seed)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	for a := 0; a < regions; a++ {
		for b := a + 1; b < regions; b++ {
			net.ConnectRegions(a, b, netsim.Gbps(1), netsim.WANUniform(30*time.Millisecond, 2*time.Millisecond))
		}
	}
	meter := &pricing.Meter{}
	catalog := pricing.Fall2018()
	store := kvstore.New("ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(), catalog, meter)
	cl := New("cache", net, store, rng.Fork(), cfg, catalog, meter)
	f := &fixture{k: k, net: net, store: store, meter: meter, cl: cl}
	replicas := make([]*Cache, regions)
	for r := 0; r < regions; r++ {
		prev := net.SetBuildRegion(r)
		replicas[r] = cl.Attach(net.NewNode(fmt.Sprintf("vm-r%d", r), 1, netsim.Mbps(538)))
		net.SetBuildRegion(prev)
	}
	return f, replicas
}

// TestWANPartitionHealConvergence is the randomized partition/heal
// property test: replicas spread across regions take writes while the
// trunks sever and heal on a random schedule drawn up front from the
// seed. After the last heal the cluster must converge to the joined value
// everywhere, and once the replicas detach and drain, the round
// accounting must balance exactly: every gossip round that found a
// reachable partner either completed or aborted.
func TestWANPartitionHealConvergence(t *testing.T) {
	var totalAborted int64
	for seed := uint64(1); seed <= 8; seed++ {
		for _, reconcile := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.GossipInterval = 25 * time.Millisecond
			cfg.Reconcile = reconcile
			regions := 2 + int(seed%2) // alternate 2- and 3-region meshes
			f, replicas := newWANFixture(t, cfg, seed, regions)
			chaos := simrand.New(seed * 977)

			// Writers: each replica mutates the shared counter from its
			// own region, through partitions.
			var want int64
			for r, c := range replicas {
				rc, rr := c, r
				f.k.Spawn(fmt.Sprintf("writer-%d", r), func(p *sim.Proc) {
					for i := 0; i < 40; i++ {
						p.Sleep(time.Duration(5+rr) * time.Millisecond)
						rc.AddCounter(p, "hits", 1)
					}
				})
				want += 40
			}
			// Chaos: sever and heal random trunks over the first 1.5s. The
			// whole schedule is drawn before the kernel runs, so it is a
			// pure function of the seed.
			type cut struct {
				a, b    int
				at, dur time.Duration
			}
			var cuts []cut
			for i := 0; i < 6; i++ {
				a := chaos.Intn(regions)
				b := (a + 1 + chaos.Intn(regions-1)) % regions
				if a > b {
					a, b = b, a
				}
				cuts = append(cuts, cut{
					a: a, b: b,
					at:  time.Duration(chaos.Intn(1500)) * time.Millisecond,
					dur: time.Duration(50+chaos.Intn(400)) * time.Millisecond,
				})
			}
			for i, ct := range cuts {
				ct := ct
				f.k.Spawn(fmt.Sprintf("cut-%d", i), func(p *sim.Proc) {
					p.Sleep(ct.at)
					f.net.PartitionRegions(ct.a, ct.b)
					p.Sleep(ct.dur)
					f.net.HealRegions(ct.a, ct.b)
				})
			}
			// Run well past the last heal; gossip converges the mesh.
			f.k.RunUntil(sim.Time(8 * time.Second))

			for r, c := range replicas {
				if got := c.PeekCounter("hits"); got != want {
					t.Errorf("seed %d recon=%v: replica %d counter = %d, want %d",
						seed, reconcile, r, got, want)
				}
			}

			// Quiesce: detach every replica (in-flight rounds abort, drains
			// flush) so the round ledger is final, then check it balances.
			f.k.Spawn("quiesce", func(p *sim.Proc) {
				for _, c := range replicas {
					c.Detach()
				}
			})
			f.k.RunUntil(f.k.Now() + sim.Time(2*time.Second))
			if got, want := f.cl.StartedRounds(), f.cl.GossipRounds()+f.cl.AbortedRounds(); got != want {
				t.Errorf("seed %d recon=%v: started %d != completed %d + aborted %d",
					seed, reconcile, got, f.cl.GossipRounds(), f.cl.AbortedRounds())
			}
			totalAborted += f.cl.AbortedRounds()
		}
	}
	// Across 16 runs × 6 cuts each, some cut must land mid-round: the
	// sever path has to be exercised, not just the partner filter.
	if totalAborted == 0 {
		t.Error("no gossip round aborted across any randomized schedule")
	}
}

// wanFlushScenario writes one counter delta on a region-1 replica and
// reports (FlushWrites, dynamodb.write units, stored value) after the
// run. With partition=true the trunk is severed when the write lands and
// heals only after many flush intervals have parked on the reachability
// gate.
func wanFlushScenario(t *testing.T, partition bool) (flushes, writeUnits, stored int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.FlushInterval = 100 * time.Millisecond
	cfg.GossipInterval = time.Hour // isolate the flush path
	f, replicas := newWANFixture(t, cfg, 3, 2)
	remote := replicas[1]
	reader := f.net.NewNode("reader", 1, netsim.Mbps(538)) // region 0, beside the store

	f.k.Spawn("driver", func(p *sim.Proc) {
		if partition {
			f.net.PartitionRegions(0, 1)
		}
		remote.AddCounter(p, "hits", 7)
		p.Sleep(2 * time.Second) // many flush intervals pass
		if partition {
			if n := f.cl.FlushWrites(); n != 0 {
				t.Errorf("flushed %d writes across a partition", n)
			}
			if n := f.meter.Count("dynamodb.write"); n != 0 {
				t.Errorf("billed %d store write units across a partition", n)
			}
			f.net.HealRegions(0, 1)
			p.Sleep(2 * time.Second) // parked flush retries, lands once
		}
		it, err := f.store.Get(p, reader, "cache/hits", true)
		if err != nil {
			t.Errorf("stored entry missing after run: %v", err)
			return
		}
		e, err := decodeEntry(it.Value)
		if err != nil {
			t.Errorf("stored entry undecodable: %v", err)
			return
		}
		stored = e.pn.Value()
	})
	f.k.RunUntil(sim.Time(10 * time.Second))
	return f.cl.FlushWrites(), f.meter.Count("dynamodb.write"), stored
}

// TestCrossRegionFlushExactlyOnceAcrossPartition is the flush regression
// test: a write landing on a replica whose backing store sits across a
// severed trunk must not be dropped and must not be double-billed — after
// the heal it flushes exactly once, with byte-for-byte the same store
// write units as an unpartitioned run of the same workload.
func TestCrossRegionFlushExactlyOnceAcrossPartition(t *testing.T) {
	ctlFlushes, ctlUnits, ctlStored := wanFlushScenario(t, false)
	if ctlFlushes == 0 || ctlStored != 7 {
		t.Fatalf("control run broken: %d flushes, stored %d", ctlFlushes, ctlStored)
	}
	flushes, units, stored := wanFlushScenario(t, true)
	if stored != 7 {
		t.Errorf("stored value after heal = %d, want 7 (write dropped?)", stored)
	}
	if flushes != ctlFlushes {
		t.Errorf("FlushWrites = %d across partition+heal, control did %d", flushes, ctlFlushes)
	}
	if units != ctlUnits {
		t.Errorf("dynamodb.write units = %d across partition+heal, control billed %d (double-billed?)",
			units, ctlUnits)
	}
}

// TestDetachDrainRetriesAcrossPartition: reclaiming a VM in a severed
// region must not lose its unflushed deltas — the drain parks on the
// reachability gate and retries until the trunk heals.
func TestDetachDrainRetriesAcrossPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlushInterval = 100 * time.Millisecond
	cfg.GossipInterval = time.Hour
	f, replicas := newWANFixture(t, cfg, 4, 2)
	remote := replicas[1]
	reader := f.net.NewNode("reader", 1, netsim.Mbps(538))

	var stored int64
	f.k.Spawn("driver", func(p *sim.Proc) {
		f.net.PartitionRegions(0, 1)
		remote.AddCounter(p, "hits", 3)
		remote.Detach()
		p.Sleep(time.Second)
		if n := f.cl.FlushWrites(); n != 0 {
			t.Errorf("detach drained %d writes across a partition", n)
		}
		f.net.HealRegions(0, 1)
		p.Sleep(2 * time.Second)
		it, err := f.store.Get(p, reader, "cache/hits", true)
		if err != nil {
			t.Errorf("drained entry missing after heal: %v", err)
			return
		}
		e, err := decodeEntry(it.Value)
		if err != nil {
			t.Errorf("drained entry undecodable: %v", err)
			return
		}
		stored = e.pn.Value()
	})
	f.k.RunUntil(sim.Time(6 * time.Second))
	if n := f.cl.FlushWrites(); n != 1 {
		t.Fatalf("FlushWrites = %d after heal, want the single drained delta", n)
	}
	if stored != 3 {
		t.Errorf("store value after drain = %d, want 3", stored)
	}
}
