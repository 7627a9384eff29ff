package kvstore

// In-place records: an overwrite rewrites the key's record, keeping the
// value it replaces as the previous version, and a first write carves its
// record out of the shard's slab. These tests pin what readers see
// through that reuse.

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// lagging reads key's record as a replica still inside the whole lag
// window does: at the instant of the write, where the eventual read
// serves the previous version whenever there is one.
func (f *fixture) lagging(key string) (Item, bool) {
	sh := f.store.shardFor(key)
	rec := sh.items[key]
	return f.store.eventualView(sh, rec.writtenAt, key, rec)
}

func (f *fixture) mustPut(t *testing.T, p *sim.Proc, key, value string) Item {
	t.Helper()
	it, err := f.store.Put(p, f.caller, key, []byte(value))
	if err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
	return it
}

func TestLaggingReadAfterInPlaceOverwriteServesPreviousVersion(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		f.mustPut(t, p, "k", "old-bytes")
		rec := f.store.shardFor("k").items["k"]
		f.mustPut(t, p, "k", "new-bytes")
		f.mustPut(t, p, "k", "newest")
		if f.store.shardFor("k").items["k"] != rec {
			t.Fatal("overwrite replaced the record instead of updating it in place")
		}
		it, ok := f.lagging("k")
		if !ok || it.Version != 2 || string(it.Value) != "new-bytes" || it.Key != "k" {
			t.Errorf("lagging read = %+v ok=%v, want version 2 with the old bytes", it, ok)
		}
	})
	f.k.Run()
}

func TestLaggingReadAfterDeleteAndPutMisses(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		f.mustPut(t, p, "k", "v1")
		f.mustPut(t, p, "k", "v2")
		f.store.Delete(p, f.caller, "k")
		if it := f.mustPut(t, p, "k", "again"); it.Version != 1 {
			t.Fatalf("rewrite after delete at version %d, want 1", it.Version)
		}
		if it, ok := f.lagging("k"); ok {
			t.Errorf("lagging read after delete+put = %+v; there is no previous version", it)
		}
		it, err := f.store.Get(p, f.caller, "k", true)
		if err != nil || it.Version != 1 || string(it.Value) != "again" {
			t.Errorf("consistent read = %+v err %v", it, err)
		}
	})
	f.k.Run()
}

func TestApplyReplicatedOverwriteKeepsPrev(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		now := p.Now()
		if !f.store.applyReplicated(now, "k", []byte("first"), sim.Time(5), 1) {
			t.Fatal("first delivery not applied")
		}
		if !f.store.applyReplicated(now, "k", []byte("second"), sim.Time(9), 1) {
			t.Fatal("newer delivery not applied")
		}
		if f.store.applyReplicated(now, "k", []byte("stale"), sim.Time(7), 0) {
			t.Error("older delivery applied")
		}
		if f.store.applyReplicated(now, "k", []byte("tie"), sim.Time(9), 1) {
			t.Error("duplicate delivery applied")
		}
		it, ok := f.lagging("k")
		if !ok || it.Version != 1 || string(it.Value) != "first" {
			t.Errorf("lagging read = %+v ok=%v, want version 1 %q", it, ok, "first")
		}
		it, err := f.store.Get(p, f.caller, "k", true)
		if err != nil || it.Version != 2 || string(it.Value) != "second" {
			t.Errorf("consistent read = %+v err %v, want version 2 %q", it, err, "second")
		}
	})
	f.k.Run()
}

func TestReturnedItemSurvivesOverwrites(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		put := f.mustPut(t, p, "k", "aaaa")
		got, err := f.store.Get(p, f.caller, "k", true)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		scanned := f.store.Scan(p, f.caller, "k")
		for _, v := range []string{"bbbb", "cccc", "dddd"} {
			f.mustPut(t, p, "k", v)
		}
		for _, it := range []Item{put, got, scanned[0]} {
			if it.Version != 1 || string(it.Value) != "aaaa" {
				t.Errorf("item handed out before the overwrites changed to %+v", it)
			}
		}
	})
	f.k.Run()
}

func TestFirstWritesSpanSlabChunks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShardCount = 4
	f := newFixture(t, cfg)
	const n = 5 * slabRecords
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			f.mustPut(t, p, fmt.Sprintf("slab/%04d", i), fmt.Sprintf("value-%d", i))
		}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("slab/%04d", i)
			it, err := f.store.Get(p, f.caller, key, true)
			if err != nil || it.Version != 1 || it.Key != key ||
				!bytes.Equal(it.Value, []byte(fmt.Sprintf("value-%d", i))) {
				t.Fatalf("Get(%q) = %+v err %v", key, it, err)
			}
		}
		if items := f.store.Scan(p, f.caller, "slab/"); len(items) != n {
			t.Fatalf("Scan found %d items, want %d", len(items), n)
		}
	})
	f.k.Run()
	for _, st := range f.store.ShardStats() {
		if st.Items <= slabRecords {
			t.Errorf("shard %d holds %d keys; the test wants every shard past one slab chunk", st.Shard, st.Items)
		}
	}
}

// TestDeleteDropsRecordValues: a deleted record stays in its slab chunk,
// so Delete must clear it for its values to be collected.
func TestDeleteDropsRecordValues(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		f.mustPut(t, p, "k", "v1")
		f.mustPut(t, p, "k", "v2")
		rec := f.store.shardFor("k").items["k"]
		f.store.Delete(p, f.caller, "k")
		if rec.value != nil || rec.prev != nil {
			t.Errorf("deleted record still holds %q and %q", rec.value, rec.prev)
		}
		if _, err := f.store.Get(p, f.caller, "k", false); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get after delete = %v", err)
		}
	})
	f.k.Run()
}

// BenchmarkPutOverwrite is one 256 B overwrite of a warm key per op on a
// 4-shard table with every latency zero. The record is updated in place,
// so the value copy is the write's only allocation.
func BenchmarkPutOverwrite(b *testing.B) {
	k := sim.NewKernel()
	b.Cleanup(k.Close)
	rng := simrand.New(7)
	zero := simrand.Const(0)
	net := netsim.NewNetwork(k, rng.Fork(),
		netsim.LatencyProfile{SameHost: zero, SameRack: zero, CrossRack: zero})
	cfg := DefaultConfig()
	cfg.ShardCount = 4
	cfg.OpLatency = zero
	store := New("ddb", net, 9, rng.Fork(), cfg, pricing.Fall2018(), &pricing.Meter{})
	caller := net.NewNode("caller", 0, netsim.Mbps(538))
	keys := []string{"key/0000", "key/0001", "key/0002", "key/0003"} // one per shard
	value := make([]byte, 256)
	k.Spawn("c", func(p *sim.Proc) {
		for _, key := range keys { // first writes, and warm every shard
			store.Put(p, caller, key, value)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Put(p, caller, keys[i%len(keys)], value); err != nil {
				b.Fatalf("Put: %v", err)
			}
		}
		b.StopTimer()
	})
	k.Run()
}
