package statecache

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k     *sim.Kernel
	net   *netsim.Network
	store *kvstore.Store
	meter *pricing.Meter
	cl    *Cluster
}

func newFixture(t *testing.T, cfg Config, seed uint64) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(seed)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	catalog := pricing.Fall2018()
	store := kvstore.New("ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(), catalog, meter)
	cl := New("cache", net, store, rng.Fork(), cfg, catalog, meter)
	return &fixture{k: k, net: net, store: store, meter: meter, cl: cl}
}

func (f *fixture) node(t *testing.T, id string) *netsim.Node {
	t.Helper()
	return f.net.NewNode(id, 1, netsim.Mbps(538))
}

func TestLocalOpsServeAtMemoryLatency(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 1)
	c := f.cl.Attach(f.node(t, "vm-1"))
	f.k.Spawn("driver", func(p *sim.Proc) {
		c.AddCounter(p, "hits", 41)
		c.AddCounter(p, "hits", 1)
		start := p.Now()
		if got := c.Counter(p, "hits"); got != 42 {
			t.Errorf("Counter = %d, want 42", got)
		}
		if lat := time.Duration(p.Now() - start); lat > 2*time.Microsecond {
			t.Errorf("local read took %v, want memory latency", lat)
		}
		c.SetRegister(p, "leader", "vm-1")
		if got := c.Register(p, "leader"); got != "vm-1" {
			t.Errorf("Register = %q", got)
		}
		c.AddSet(p, "members", "a")
		c.AddSet(p, "members", "b")
		c.RemoveSet(p, "members", "a")
		if c.SetContains(p, "members", "a") || !c.SetContains(p, "members", "b") {
			t.Errorf("SetElements = %v, want [b]", c.SetElements(p, "members"))
		}
		c.IncGCounter(p, "total", 7)
		if got := c.GCounterValue(p, "total"); got != 7 {
			t.Errorf("GCounterValue = %d, want 7", got)
		}
	})
	f.k.RunUntil(sim.Time(time.Second))
}

func TestGossipConvergesReplicasAndBoundsStaleness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GossipInterval = 50 * time.Millisecond
	f := newFixture(t, cfg, 2)
	a := f.cl.Attach(f.node(t, "vm-a"))
	b := f.cl.Attach(f.node(t, "vm-b"))
	f.k.Spawn("driver", func(p *sim.Proc) {
		a.AddCounter(p, "hits", 10)
		b.AddCounter(p, "hits", 5)
		a.SetRegister(p, "cfg", "v2")
	})
	f.k.RunUntil(sim.Time(time.Second))
	if got := b.PeekCounter("hits"); got != 15 {
		t.Errorf("replica b counter = %d, want 15", got)
	}
	if got := a.PeekCounter("hits"); got != 15 {
		t.Errorf("replica a counter = %d, want 15", got)
	}
	if got := b.PeekRegister("cfg"); got != "v2" {
		t.Errorf("replica b register = %q, want v2", got)
	}
	st := f.cl.Staleness()
	if st.Count() == 0 {
		t.Fatal("no staleness samples recorded")
	}
	if max := st.Max(); max > 10*cfg.GossipInterval {
		t.Errorf("staleness max %v not bounded by gossip cadence (%v)", max, cfg.GossipInterval)
	}
	if f.cl.GossipRounds() == 0 {
		t.Error("no gossip rounds ran")
	}
}

func TestWriteBehindFlushPersistsAndJoinsInStore(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlushInterval = 100 * time.Millisecond
	cfg.GossipInterval = time.Hour // isolate the flush path: store-side join only
	f := newFixture(t, cfg, 3)
	a := f.cl.Attach(f.node(t, "vm-a"))
	b := f.cl.Attach(f.node(t, "vm-b"))
	reader := f.node(t, "reader")
	var stored int64
	f.k.Spawn("driver", func(p *sim.Proc) {
		a.AddCounter(p, "hits", 3)
		b.AddCounter(p, "hits", 4)
		p.Sleep(time.Second) // several flush cycles on both replicas
		it, err := f.store.Get(p, reader, "cache/hits", true)
		if err != nil {
			t.Errorf("stored entry missing: %v", err)
			return
		}
		e, err := decodeEntry(it.Value)
		if err != nil {
			t.Errorf("stored entry undecodable: %v", err)
			return
		}
		stored = e.pn.Value()
	})
	f.k.RunUntil(sim.Time(2 * time.Second))
	if stored != 7 {
		t.Errorf("store joined value = %d, want 7 (both replicas' deltas)", stored)
	}
	if f.cl.FlushWrites() == 0 {
		t.Error("no flush writes recorded")
	}
}

func TestDetachDrainsDirtyDeltas(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlushInterval = time.Hour // the periodic flush never runs
	cfg.GossipInterval = time.Hour
	f := newFixture(t, cfg, 4)
	node := f.node(t, "vm-a")
	a := f.cl.Attach(node)
	reader := f.node(t, "reader")
	var stored int64
	var found bool
	f.k.Spawn("driver", func(p *sim.Proc) {
		a.AddCounter(p, "hits", 9)
		f.cl.Detach(node)
		p.Sleep(time.Second) // let the drain process flush
		it, err := f.store.Get(p, reader, "cache/hits", true)
		if err != nil {
			return
		}
		e, err := decodeEntry(it.Value)
		if err != nil {
			t.Errorf("stored entry undecodable: %v", err)
			return
		}
		stored, found = e.pn.Value(), true
	})
	f.k.RunUntil(sim.Time(2 * time.Second))
	if !found || stored != 9 {
		t.Errorf("drained value = %d (found=%v), want 9", stored, found)
	}
	if f.cl.Replicas() != 0 {
		t.Errorf("Replicas = %d after detach, want 0", f.cl.Replicas())
	}
}

func TestCacheMemoryBillsPerGBSecond(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GossipInterval = time.Hour
	cfg.FlushInterval = time.Hour
	f := newFixture(t, cfg, 5)
	a := f.cl.Attach(f.node(t, "vm-a"))
	f.k.Spawn("driver", func(p *sim.Proc) {
		a.AddCounter(p, "hits", 1)
	})
	f.k.RunUntil(sim.Time(time.Hour))
	f.cl.Accrue(f.k.Now())
	if f.cl.CachedBytes() <= 0 {
		t.Fatalf("CachedBytes = %d, want > 0", f.cl.CachedBytes())
	}
	got := float64(f.meter.Cost("statecache.gbsec"))
	want := float64(f.cl.CachedBytes()) / 1e9 * 3600 * 0.02 / 3600
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("hourly memory bill = $%v, want ≈ $%v", got, want)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	f := newFixture(t, DefaultConfig(), 6)
	c := f.cl.Attach(f.node(t, "vm-a"))
	var recovered any
	f.k.Spawn("driver", func(p *sim.Proc) {
		defer func() { recovered = recover() }()
		c.AddCounter(p, "x", 1)
		c.SetRegister(p, "x", "boom")
	})
	f.k.RunUntil(sim.Time(time.Second))
	if recovered == nil {
		t.Error("mixing lattice kinds on one key did not panic")
	}
}

func TestEntryEnvelopeRoundTrips(t *testing.T) {
	for _, kind := range []Kind{KindGCounter, KindPNCounter, KindRegister, KindSet} {
		e := newEntry(kind)
		switch kind {
		case KindGCounter:
			e.g.Inc("r1", 5)
		case KindPNCounter:
			e.pn.Add("r1", -3)
		case KindRegister:
			e.reg.Set("r1", 10, "v")
		case KindSet:
			e.set.Add("r1", "x")
			e.set.Remove("x")
			e.set.Add("r1", "y")
		}
		e.lastWrite = 123
		e.refresh(new([]byte))
		// The hand-written envelope must be the bytes json.Marshal wrote
		// for it, so stored state keeps decoding and digesting the same.
		want, err := json.Marshal(envelope{Kind: kind, State: e.appendState(nil), LastWrite: 123})
		if err != nil {
			t.Fatal(err)
		}
		if enc := e.encode(); !bytes.Equal(enc, want) {
			t.Errorf("%v: encode %s, json.Marshal %s", kind, enc, want)
		}
		got, err := decodeEntry(e.encode())
		if err != nil {
			t.Fatalf("%v: decode: %v", kind, err)
		}
		if got.hash != e.hash {
			t.Errorf("%v: round-trip hash %x != %x", kind, got.hash, e.hash)
		}
		if got.lastWrite != e.lastWrite {
			t.Errorf("%v: round-trip lastWrite %v != %v", kind, got.lastWrite, e.lastWrite)
		}
	}
	if _, err := decodeEntry([]byte(`{"kind":99,"state":{}}`)); err == nil {
		t.Error("unknown kind decoded without error")
	}
	if _, err := decodeEntry([]byte(`not json`)); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestFlushSurvivesConditionalWriteRaces(t *testing.T) {
	// Both replicas flush the same key on the same cycle; the loser of the
	// conditional write must re-read, re-join and retry so neither side's
	// deltas are dropped.
	cfg := DefaultConfig()
	cfg.FlushInterval = 50 * time.Millisecond
	cfg.GossipInterval = time.Hour
	f := newFixture(t, cfg, 7)
	a := f.cl.Attach(f.node(t, "vm-a"))
	b := f.cl.Attach(f.node(t, "vm-b"))
	reader := f.node(t, "reader")
	var stored int64
	f.k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			a.AddCounter(p, "hot", 1)
			b.AddCounter(p, "hot", 1)
			p.Sleep(20 * time.Millisecond)
		}
		p.Sleep(time.Second)
		it, err := f.store.Get(p, reader, "cache/hot", true)
		if err != nil {
			t.Errorf("hot key missing: %v", err)
			return
		}
		e, err := decodeEntry(it.Value)
		if err != nil {
			t.Errorf("hot key undecodable: %v", err)
			return
		}
		stored = e.pn.Value()
	})
	f.k.RunUntil(sim.Time(3 * time.Second))
	if stored != 40 {
		t.Errorf("store joined value = %d, want 40", stored)
	}
}
