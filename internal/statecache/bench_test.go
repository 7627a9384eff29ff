package statecache

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

// BenchmarkCacheCounterOp measures the real-time cost of one local cache
// write (lattice mutation + footprint/digest refresh + billing update) on
// an 8-replica-wide counter — the statecache experiment's hot path.
func BenchmarkCacheCounterOp(b *testing.B) {
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
	// Pre-widen the lattice to 8 replica slots, like an 8-VM fleet.
	seed := c.at("hits", KindPNCounter, true)
	for i := 0; i < 8; i++ {
		seed.pn.Add(string(rune('a'+i)), int64(i))
	}
	done := false
	k.Spawn("bench", func(p *sim.Proc) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.AddCounter(p, "hits", 1)
		}
		b.StopTimer()
		done = true
	})
	k.RunUntil(sim.Time(time.Duration(b.N+1) * time.Microsecond))
	if !done {
		b.Fatal("benchmark proc did not finish")
	}
}

// BenchmarkEntryRefresh measures one mutation plus footprint/digest
// refresh of an 8-replica PN-counter with a warm scratch buffer: the work
// every gossip diff, flush and billing settlement pays per stale entry.
// CI requires it to stay at 0 allocs/op.
func BenchmarkEntryRefresh(b *testing.B) {
	e := newEntry(KindPNCounter)
	for i := 0; i < 8; i++ {
		e.pn.Add(fmt.Sprintf("vm-%d#%d", i, i+1), int64(i-4))
	}
	var buf []byte
	e.refresh(&buf)
	b.ReportAllocs()
	for b.Loop() {
		e.pn.Add("vm-7#8", 1) // an existing slot: no map growth
		e.refresh(&buf)
	}
}

// BenchmarkEntryMerge measures entry.merge of two 8-replica PN-counters
// with equal replica sets and a warm scratch buffer, one sub-benchmark per
// merge outcome:
//
//   - noop: the incoming state is dominated, so the digest is kept;
//   - dominated: the incoming state is one increment ahead, so the join
//     equals it and its digest is taken;
//   - concurrent: each side is one increment ahead on its own replica, so
//     the join is re-encoded and re-digested.
//
// The incoming entry is advanced and refreshed inside the timed loop in
// the last two, as a live peer's fresh digest would be. CI requires every
// outcome to stay at 0 allocs/op.
func BenchmarkEntryMerge(b *testing.B) {
	pair := func() (e, other *entry, buf []byte) {
		e, other = newEntry(KindPNCounter), newEntry(KindPNCounter)
		for i := 0; i < 8; i++ {
			r := fmt.Sprintf("vm-%d#%d", i, i+1)
			e.pn.Add(r, int64(i-4))
			other.pn.Add(r, int64(i-4))
		}
		e.refresh(&buf)
		other.refresh(&buf)
		return e, other, buf
	}
	b.Run("noop", func(b *testing.B) {
		e, other, buf := pair()
		e.pn.Add("vm-0#1", 1)
		e.refresh(&buf)
		b.ReportAllocs()
		for b.Loop() {
			e.merge(other, &buf)
		}
	})
	b.Run("dominated", func(b *testing.B) {
		e, other, buf := pair()
		var obuf []byte
		b.ReportAllocs()
		for b.Loop() {
			other.pn.Add("vm-7#8", 1)
			other.refresh(&obuf)
			e.merge(other, &buf)
		}
	})
	b.Run("concurrent", func(b *testing.B) {
		e, other, buf := pair()
		var obuf []byte
		b.ReportAllocs()
		for b.Loop() {
			e.pn.Add("vm-0#1", 1)
			other.pn.Add("vm-7#8", 1)
			other.refresh(&obuf)
			e.merge(other, &buf)
		}
	})
}

// BenchmarkDecodeEntryWarm measures decoding a stored 8-replica PN-counter
// envelope into a scratch entry that holds the key's previous version, as
// the write-behind flush does on every stored read. CI requires it to stay
// at 0 allocs/op.
func BenchmarkDecodeEntryWarm(b *testing.B) {
	e := newEntry(KindPNCounter)
	for i := 0; i < 8; i++ {
		e.pn.Add(fmt.Sprintf("vm-%d#%d", i, i+1), int64(i-4))
	}
	var buf []byte
	e.refresh(&buf)
	prev := e.encode(nil)
	e.pn.Add("vm-7#8", 1)
	e.refresh(&buf)
	next := e.encode(nil)
	var scratch entry
	if err := decodeEntryInto(&scratch, prev); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := decodeEntryInto(&scratch, next); err != nil {
			b.Fatal(err)
		}
	}
}
