package kvstore

// In-place records: an overwrite rewrites the key's record, keeping the
// value it replaces as the previous version, and a first write carves its
// record out of the shard's slab. These tests pin what readers see
// through that reuse.

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// lagging reads key's record as a replica still inside the whole lag
// window does: at the instant of the write, where the eventual read
// serves the previous version whenever there is one.
func (f *fixture) lagging(key string) (Item, bool) {
	sh := f.store.shardFor(key)
	rec := sh.items[key]
	value, version := f.store.eventualView(sh, rec.writtenAt, rec)
	if version == 0 {
		return Item{}, false
	}
	return Item{Key: key, Value: value, Version: version}, true
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
	var perShard [4]int
	for i := 0; i < n; i++ {
		perShard[ShardIndex(fmt.Sprintf("slab/%04d", i), 4)]++
	}
	for i, keys := range perShard {
		if keys <= slabRecords {
			t.Errorf("shard %d holds %d keys; the test wants every shard past one slab chunk", i, keys)
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

// TestEqualValuesShareOneCopy: two keys written with equal bytes from
// different caller buffers share one stored copy, which is neither
// caller's buffer.
func TestEqualValuesShareOneCopy(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		b1, b2 := []byte("same-bytes"), []byte("same-bytes")
		it1, err1 := f.store.Put(p, f.caller, "k1", b1)
		it2, err2 := f.store.Put(p, f.caller, "k2", b2)
		if err1 != nil || err2 != nil {
			t.Fatalf("Put: %v, %v", err1, err2)
		}
		if &it1.Value[0] != &it2.Value[0] {
			t.Error("equal values written to two keys are stored as two copies")
		}
		if &it1.Value[0] == &b1[0] || &it1.Value[0] == &b2[0] {
			t.Error("the stored value aliases a caller's buffer")
		}
	})
	f.k.Run()
}

// TestItemKeepsBytesAcrossLaterWrites: an Item handed out earlier keeps
// its bytes through later writes of equal and of different content, to
// its own key and to others.
func TestItemKeepsBytesAcrossLaterWrites(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		type held struct {
			it   Item
			want string
		}
		var items []held
		for _, w := range []struct{ key, value string }{
			{"k", "aaaa"}, // a first copy
			{"k", "aaaa"}, // equal, same key
			{"o", "aaaa"}, // equal, other key
			{"k", "bbbb"}, // different, same key
			{"o", "cccc"}, // different, other key
			{"k", "cccc"}, // equal to the other key's latest
			{"x", "dddd"}, // different, new key
			{"k", "aaaa"}, // earlier content again
		} {
			items = append(items, held{f.mustPut(t, p, w.key, w.value), w.value})
			for _, key := range []string{"k", "o"} {
				if it, err := f.store.Get(p, f.caller, key, true); err == nil {
					items = append(items, held{it, string(it.Value)})
				}
			}
			for _, h := range items {
				if string(h.it.Value) != h.want {
					t.Fatalf("after writing %s=%s: item %s v%d reads %q, want %q",
						w.key, w.value, h.it.Key, h.it.Version, h.it.Value, h.want)
				}
			}
		}
		if it, ok := f.lagging("k"); !ok || string(it.Value) != "cccc" {
			t.Errorf("lagging read of k = %+v ok=%v, want the previous value %q", it, ok, "cccc")
		}
	})
	f.k.Run()
}

// TestEmptyValueReadsBackNil: an empty value is stored as nil whether the
// shard's last copy is unset, nil or non-empty, and reads back as such.
func TestEmptyValueReadsBackNil(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		for i, w := range []struct {
			key   string
			value []byte
		}{{"e1", nil}, {"e2", []byte{}}, {"full", []byte("x")}, {"e3", []byte{}}, {"e1", nil}} {
			if _, err := f.store.Put(p, f.caller, w.key, w.value); err != nil {
				t.Fatalf("write %d: Put(%q): %v", i, w.key, err)
			}
		}
		for key, version := range map[string]int64{"e1": 2, "e2": 1, "e3": 1} {
			it, err := f.store.Get(p, f.caller, key, true)
			if err != nil || it.Value != nil || it.Version != version || it.Size() != int64(len(key)) {
				t.Errorf("Get(%q) = %+v err %v, want a nil value at version %d", key, it, err, version)
			}
		}
	})
	f.k.Run()
}

// TestValuesSurviveBlockRollover: values are copied into shared blocks.
// Distinct values of many sizes, one larger than a whole block, fill and
// replace several blocks. Every Item handed out must keep its bytes after
// every later write, each stored value must end at its own length, and an
// append to one Item's Value must leave every other value as it was.
func TestValuesSurviveBlockRollover(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ShardCount = 2
	f := newFixture(t, cfg)
	f.k.Spawn("c", func(p *sim.Proc) {
		type held struct {
			it   Item
			want string
		}
		var items []held
		check := func(when string) {
			t.Helper()
			for _, h := range items {
				if string(h.it.Value) != h.want {
					t.Fatalf("%s: item %s v%d reads %.40q (%d bytes), want %.40q (%d bytes)",
						when, h.it.Key, h.it.Version, h.it.Value, len(h.it.Value), h.want, len(h.want))
				}
			}
		}
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("k%d", i%7)
			value := fmt.Sprintf("%d:", i) + strings.Repeat("v", i%97)
			if i == 150 {
				value = strings.Repeat("L", valueBlockBytes+100)
			}
			it := f.mustPut(t, p, key, value)
			if len(it.Value) != cap(it.Value) {
				t.Fatalf("write %d: value of %d bytes has capacity %d", i, len(it.Value), cap(it.Value))
			}
			items = append(items, held{it, value})
			got, err := f.store.Get(p, f.caller, key, true)
			if err != nil {
				t.Fatalf("Get(%q): %v", key, err)
			}
			items = append(items, held{got, value})
			// The value written before this one lies next to it in
			// its block unless the block was replaced in between.
			if i > 0 {
				_ = append(items[len(items)-3].it.Value, "appended"...)
			}
			check(fmt.Sprintf("after write %d", i))
		}
	})
	f.k.Run()
}

// BenchmarkPutOverwrite is one 256 B overwrite of a warm key per op on a
// 4-shard table with every latency zero. Each shard's writes alternate
// between two distinct values, so every write misses the shard's last
// copy: the record is updated in place, and the value copy takes a share
// of the shard's value block, so a write allocates nothing but one 4 KB
// block per 16 writes to its shard.
func BenchmarkPutOverwrite(b *testing.B) {
	values := [2][]byte{make([]byte, 256), make([]byte, 256)}
	values[1][0] = 1
	benchmarkPut(b, func(i int) []byte { return values[i/4%2] })
}

// BenchmarkPutSameValue is BenchmarkPutOverwrite writing one value
// throughout: every write shares the shard's stored copy, so a warm
// overwrite allocates nothing.
func BenchmarkPutSameValue(b *testing.B) {
	value := make([]byte, 256)
	benchmarkPut(b, func(int) []byte { return value })
}

// benchmarkPut writes value(i) to one of four keys, one per shard in
// turn, as op i.
func benchmarkPut(b *testing.B, value func(i int) []byte) {
	k := sim.NewKernel()
	b.Cleanup(k.Close)
	rng := simrand.New(7)
	zero := simrand.Const(0)
	net := netsim.NewNetwork(k, rng.Fork(),
		netsim.LatencyProfile{SameHost: zero, SameRack: zero, CrossRack: zero})
	cfg := DefaultConfig()
	cfg.ShardCount = 4
	store := New("ddb", net, 9, rng.Fork(), cfg, pricing.Fall2018(), &pricing.Meter{})
	for i, sh := range store.shards { // front ends that take no service time
		fe := sh.fe
		sh.fe = service.NewFrontend(fmt.Sprintf("ddb-zero-s%d", i), net, 9, fe.RNG(), zero, nicBps,
			fe.Catalog(), fe.Meter())
	}
	caller := net.NewNode("caller", 0, netsim.Mbps(538))
	keys := []string{"key/0000", "key/0001", "key/0002", "key/0003"} // one per shard
	k.Spawn("c", func(p *sim.Proc) {
		for i, key := range keys { // first writes, and warm every shard
			store.Put(p, caller, key, value(i+len(keys)))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := store.Put(p, caller, keys[i%len(keys)], value(i)); err != nil {
				b.Fatalf("Put: %v", err)
			}
		}
		b.StopTimer()
	})
	k.Run()
}
