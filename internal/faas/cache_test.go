package faas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/statecache"
)

// cacheFixture wires a platform to a state-cache cluster backed by a
// kvstore, with the cluster's periodic flush and gossip pushed out past the
// test horizon so the only path that can persist deltas is the one under
// test (the VM-reclaim drain).
func cacheFixture(t *testing.T, cfg Config, flushNever bool) (*fixture, *statecache.Cluster, *kvstore.Store) {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(31)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	catalog := pricing.Fall2018()
	pf := New("lambda", net, rng.Fork(), cfg, catalog, meter)
	store := kvstore.New("ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(), catalog, meter)
	sccfg := statecache.DefaultConfig()
	if flushNever {
		sccfg.FlushInterval = 24 * time.Hour
		sccfg.GossipInterval = 24 * time.Hour
	}
	cl := statecache.New("cache", net, store, rng.Fork(), sccfg, catalog, meter)
	pf.AttachStateCache(cl)
	caller := net.NewNode("client", 0, netsim.Gbps(10))
	return &fixture{k: k, net: net, pf: pf, meter: meter, caller: caller}, cl, store
}

// TestReclaimedVMDrainsCacheDeltas is the regression test for the silent
// delta-drop bug: a handler absorbs a write into the VM-colocated cache,
// the container expires, the emptied VM is reclaimed and its node recycled
// — and the unflushed delta must still reach the backing store. Before
// reclaimVM detached (and thereby drained) the replica, the state died
// with the VM.
func TestReclaimedVMDrainsCacheDeltas(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmTTL = 5 * time.Second
	f, cl, store := cacheFixture(t, cfg, true)

	if err := f.pf.Register(Function{
		Name: "hit", MemoryMB: 256, Timeout: time.Minute,
		Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			ctx.Cache().AddCounter(ctx.Proc(), "hits", 1)
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}

	var stored int64
	var storeErr error
	f.k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, _, err := f.pf.Invoke(p, "hit", nil); err != nil {
				t.Errorf("invoke: %v", err)
				return
			}
		}
		// Outlive the warm TTL: the reaper empties the VM, reclaim
		// recycles the node, and the drain must persist the deltas.
		p.Sleep(cfg.WarmTTL + 2*time.Second)
		if f.pf.VMCount() != 0 {
			t.Errorf("VMCount = %d after TTL, want 0", f.pf.VMCount())
		}
		it, err := store.Get(p, f.caller, "cache/hits", true)
		if err != nil {
			storeErr = err
			return
		}
		e, err := statecache.DecodeValue(it.Value)
		if err != nil {
			t.Errorf("stored entry undecodable: %v", err)
			return
		}
		stored = e.Counter()
	})
	f.k.RunUntil(sim.Time(time.Minute))

	if errors.Is(storeErr, kvstore.ErrNotFound) {
		t.Fatal("reclaimed VM dropped its cache deltas: key never flushed to the store")
	}
	if storeErr != nil {
		t.Fatalf("store read: %v", storeErr)
	}
	if stored != 3 {
		t.Errorf("flushed counter = %d, want 3", stored)
	}
	if cl.Replicas() != 0 {
		t.Errorf("cluster still tracks %d replicas after reclaim", cl.Replicas())
	}
}

// TestAttachStateCacheTwicePanics: a platform takes one state cache, once,
// before any VM is active. A second attach, of the same cluster or another,
// and a first attach to a platform already hosting a VM are wiring bugs.
func TestAttachStateCacheTwicePanics(t *testing.T) {
	mustPanic := func(what string, attach func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		attach()
	}
	f, cl, store := cacheFixture(t, DefaultConfig(), true)
	cl2 := statecache.New("cache2", f.net, store, simrand.New(99), statecache.DefaultConfig(),
		pricing.Fall2018(), f.meter)
	mustPanic("attaching the same cluster again", func() { f.pf.AttachStateCache(cl) })
	mustPanic("attaching a second cluster", func() { f.pf.AttachStateCache(cl2) })

	g := newFixture(t, DefaultConfig())
	if err := g.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop}); err != nil {
		t.Fatal(err)
	}
	runDriver(t, g, func(p *sim.Proc) {
		if _, _, err := g.pf.Invoke(p, "f", nil); err != nil {
			t.Error(err)
		}
	})
	if g.pf.VMCount() != 1 {
		t.Fatalf("VM count = %d, want 1", g.pf.VMCount())
	}
	mustPanic("attaching after a VM is active", func() { g.pf.AttachStateCache(cl2) })
}

// TestCtxCacheIsVMColocated: two containers packed onto the same VM share
// one replica; a container on another VM sees a different replica that
// still converges via gossip.
func TestCtxCacheSharedPerVM(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContainersPerVM = 1 // force each concurrent invocation onto its own VM
	f, cl, _ := cacheFixture(t, cfg, false)

	caches := make(chan *statecache.Cache, 2)
	if err := f.pf.Register(Function{
		Name: "probe", MemoryMB: 256, Timeout: time.Minute,
		Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			ctx.Cache().AddCounter(ctx.Proc(), "seen", 1)
			caches <- ctx.Cache()
			ctx.Proc().Sleep(time.Second) // hold both invocations concurrent
			return nil, nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	var wg sim.WaitGroup
	f.k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			p.Spawn("call", func(cp *sim.Proc) {
				defer wg.Done()
				if _, _, err := f.pf.Invoke(cp, "probe", nil); err != nil {
					t.Errorf("invoke: %v", err)
				}
			})
		}
		wg.Wait(p)
	})
	f.k.RunUntil(sim.Time(30 * time.Second))
	close(caches)
	a, b := <-caches, <-caches
	if a == nil || b == nil {
		t.Fatal("handler saw a nil cache")
	}
	if a == b {
		t.Fatal("one-container-per-VM invocations shared a replica")
	}
	if got := a.PeekCounter("seen"); got != 2 {
		t.Errorf("replica a converged to %d, want 2", got)
	}
	if got := b.PeekCounter("seen"); got != 2 {
		t.Errorf("replica b converged to %d, want 2", got)
	}
	if cl.Staleness().Count() == 0 {
		t.Error("gossip recorded no staleness samples")
	}
}
