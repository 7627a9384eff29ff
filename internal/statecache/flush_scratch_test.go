package statecache

import (
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// TestConcurrentFlushesDoNotShareScratch pins the flush-scratch ownership
// contract: flushKey parks on store round trips, so a second flushDirty on
// the same replica (the drain process Detach spawns while the periodic
// flusher is parked mid-iteration) can run concurrently. Each invocation
// must iterate its own key list and encode into its own buffer — a shared
// one would let the second call rewrite the first's remaining keys, or the
// bytes of its write in flight, under it. Every key holds a different
// count, so a write carrying another key's bytes shows.
func TestConcurrentFlushesDoNotShareScratch(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(1)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	catalog := pricing.Fall2018()
	store := kvstore.New("ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(), catalog, meter)
	cfg := DefaultConfig()
	cfg.GossipInterval = time.Hour
	cfg.FlushInterval = time.Hour
	cl := New("cache", net, store, rng.Fork(), cfg, catalog, meter)
	c := cl.Attach(net.NewNode("vm", 1, netsim.Mbps(538)))

	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	k.Spawn("writer", func(p *sim.Proc) {
		for i, key := range keys {
			c.AddCounter(p, key, int64(i+1))
		}
		// Two flushers over the same dirty set, racing at park points.
		k.Spawn("flush-1", func(p *sim.Proc) { c.flushDirty(p) })
		k.Spawn("flush-2", func(p *sim.Proc) { c.flushDirty(p) })
	})
	// Bounded horizon: the replica's hourly gossip/flush loops never exit.
	k.RunUntil(sim.Time(time.Minute))

	if n := len(c.dirty); n != 0 {
		t.Fatalf("%d keys still dirty after concurrent flushes", n)
	}
	k.Spawn("probe", func(p *sim.Proc) {
		for i, key := range keys {
			it, err := store.Get(p, c.node, "cache/"+key, true)
			if err != nil {
				t.Errorf("key %q not flushed: %v", key, err)
				continue
			}
			v, err := DecodeValue(it.Value)
			if err != nil {
				t.Errorf("key %q: %v", key, err)
				continue
			}
			if v.Counter() != int64(i+1) {
				t.Errorf("key %q flushed counter = %d, want %d", key, v.Counter(), i+1)
			}
		}
	})
	k.RunUntil(sim.Time(2 * time.Minute))
}

// TestFlushMergeDoesNotAliasScratch pins what lets a flush cycle decode
// every stored envelope into one scratch entry: after flushKey merges the
// stored state into the local entry, decoding another value into the
// scratch (the same replicas, so it rewrites the scratch's slots in place)
// must leave the local entry's value and digest unchanged. GCounter.Merge
// copies the slots it takes over and never aliases the other side's.
func TestFlushMergeDoesNotAliasScratch(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(1)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	catalog := pricing.Fall2018()
	store := kvstore.New("ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(), catalog, meter)
	cfg := DefaultConfig()
	cfg.GossipInterval = time.Hour
	cfg.FlushInterval = time.Hour
	cl := New("cache", net, store, rng.Fork(), cfg, catalog, meter)
	c := cl.Attach(net.NewNode("vm", 1, netsim.Mbps(538)))

	stored := func(p, n int64) []byte {
		e := newEntry(KindPNCounter)
		e.pn.Add("vm-a#7", p)  // the local entry lacks this P slot ...
		e.pn.Add("vm-b#8", -n) // ... and has no N slot at all
		e.lastWrite = 1
		var buf []byte
		e.refresh(&buf)
		return e.encode(nil)
	}
	done := false
	k.Spawn("flush", func(p *sim.Proc) {
		if _, err := store.Put(p, c.node, "cache/ctr", stored(5, 3)); err != nil {
			t.Errorf("seeding the store: %v", err)
			return
		}
		c.AddCounter(p, "ctr", 1)
		fs := &flushScratch{}
		if err := c.flushKey(p, "ctr", fs); err != nil {
			t.Errorf("flushKey: %v", err)
			return
		}
		e := c.entries["ctr"]
		value, hash := e.pn.Value(), e.hash
		if value != 3 {
			t.Errorf("joined value %d, want 1 + 5 - 3 = 3", value)
		}
		if err := decodeEntryInto(&fs.stored, stored(50, 30)); err != nil {
			t.Errorf("decoding into the scratch: %v", err)
			return
		}
		if fs.stored.pn.Value() != 20 {
			t.Errorf("scratch value %d, want 20", fs.stored.pn.Value())
		}
		if e.pn.Value() != value || e.hash != hash {
			t.Errorf("local entry changed under the scratch: value %d -> %d, digest %x -> %x",
				value, e.pn.Value(), hash, e.hash)
		}
		checkDigestsCanonical(t, "after the scratch was reused", []*Cache{c})
		done = true
	})
	k.RunUntil(sim.Time(time.Minute))
	if !done {
		t.Fatal("flush process did not finish")
	}
}
