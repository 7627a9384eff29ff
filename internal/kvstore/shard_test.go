package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"repro/internal/sim"
)

func newShardedFixture(t *testing.T, shards, concurrency int) *fixture {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ShardCount = shards
	cfg.ShardConcurrency = concurrency
	return newFixture(t, cfg)
}

// TestRouterIsStable: the same key must route to the same shard on every
// call and on every store with the same shard count — routing is a pure
// function of (key, shardCount).
func TestRouterIsStable(t *testing.T) {
	a := newShardedFixture(t, 8, 0)
	b := newShardedFixture(t, 8, 0)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("user/%d", i)
		first := a.store.ShardFor(key)
		if got := a.store.ShardFor(key); got != first {
			t.Fatalf("key %q moved shards within one store: %d then %d", key, first, got)
		}
		if got := b.store.ShardFor(key); got != first {
			t.Fatalf("key %q routes to %d on one store, %d on another", key, first, got)
		}
		if first < 0 || first >= 8 {
			t.Fatalf("key %q routed out of range: %d", key, first)
		}
	}
}

// TestRouterSpreadsKeys: hash routing must not funnel a realistic key
// population into few shards.
func TestRouterSpreadsKeys(t *testing.T) {
	f := newShardedFixture(t, 8, 0)
	counts := make([]int, 8)
	const keys = 8000
	for i := 0; i < keys; i++ {
		counts[f.store.ShardFor(fmt.Sprintf("user/%07d", i))]++
	}
	for shard, n := range counts {
		// Expect ~1000 per shard; alarm at ±40%.
		if n < keys/8*6/10 || n > keys/8*14/10 {
			t.Errorf("shard %d holds %d of %d keys, want near %d", shard, n, keys, keys/8)
		}
	}
}

// TestShardedDataPlane: reads, writes, scans and conditional puts on a sharded
// table behave like one logical table.
func TestShardedDataPlane(t *testing.T) {
	f := newShardedFixture(t, 4, 0)
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			if _, err := f.store.Put(p, f.caller, fmt.Sprintf("k/%02d", i), []byte("v")); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
		// Every key readable, from its own shard.
		for i := 0; i < 40; i++ {
			it, err := f.store.Get(p, f.caller, fmt.Sprintf("k/%02d", i), true)
			if err != nil || it.Version != 1 {
				t.Errorf("Get k/%02d: %+v err=%v", i, it, err)
			}
		}
		// Scan merges all shards, globally sorted.
		items := f.store.Scan(p, f.caller, "k/")
		if len(items) != 40 {
			t.Errorf("scan returned %d items, want 40", len(items))
		}
		if !sort.SliceIsSorted(items, func(i, j int) bool { return items[i].Key < items[j].Key }) {
			t.Error("sharded scan result not globally sorted")
		}
		// Overwrite k/00 so a ConditionalPut expecting version 1 is stale.
		if it, err := f.store.Put(p, f.caller, "k/00", []byte("w2")); err != nil || it.Version != 2 {
			t.Errorf("overwrite k/00: %+v err=%v", it, err)
		}
		// Conditional puts are atomic per key wherever it lives.
		if _, err := f.store.ConditionalPut(p, f.caller, "k/00", []byte("x"), 1); !errors.Is(err, ErrConditionFailed) {
			t.Errorf("stale ConditionalPut err = %v, want ErrConditionFailed", err)
		}
	})
	f.k.Run()
	if f.store.Len() != 40 {
		t.Errorf("Len = %d, want 40", f.store.Len())
	}
}

// TestShardStatsSurface: each shard front end's request count and each
// shard's keys reflect where ShardIndex routed the traffic.
func TestShardStatsSurface(t *testing.T) {
	f := newShardedFixture(t, 4, 0)
	const hotKey = "hot/key"
	keys := []string{hotKey}
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if _, err := f.store.Put(p, f.caller, hotKey, []byte("v")); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
		for i := 0; i < 4; i++ {
			key := fmt.Sprintf("cold/%d", i)
			keys = append(keys, key)
			_, _ = f.store.Put(p, f.caller, key, []byte("v"))
		}
	})
	f.k.Run()

	if n := f.store.ShardCount(); n != 4 {
		t.Fatalf("ShardCount = %d, want 4", n)
	}
	var wantKeys [4]int
	for _, key := range keys {
		wantKeys[ShardIndex(key, 4)]++
	}
	var total int64
	hot := 0
	for i := 0; i < 4; i++ {
		n := f.store.ShardFrontend(i).Stats().Requests
		total += n
		if n > f.store.ShardFrontend(hot).Stats().Requests {
			hot = i
		}
		if got := len(f.store.shards[i].items); got != wantKeys[i] {
			t.Errorf("shard %d holds %d keys, want %d", i, got, wantKeys[i])
		}
	}
	if total != 36 {
		t.Errorf("total shard requests = %d, want 36", total)
	}
	if want := ShardIndex(hotKey, 4); hot != want || f.store.ShardFor(hotKey) != want {
		t.Errorf("hottest shard = %d, want %d (owner of the hot key)", hot, want)
	}
	if n := f.store.ShardFrontend(hot).Stats().Requests; n < 32 {
		t.Errorf("hottest shard served %d requests, want >= 32", n)
	}
}

// TestShardConcurrencySerializes: with one service slot per shard, two
// concurrent requests to the same shard must serialize (the second's
// completion is pushed out by the first's service time), while requests to
// different shards proceed in parallel.
func TestShardConcurrencySerializes(t *testing.T) {
	f := newShardedFixture(t, 1, 1)
	durations := make([]sim.Time, 2)
	for i := 0; i < 2; i++ {
		f.k.Spawn(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
			start := p.Now()
			if _, err := f.store.Put(p, f.caller, "same-shard", []byte("v")); err != nil {
				t.Errorf("Put: %v", err)
			}
			durations[i] = p.Now() - start
		})
	}
	f.k.Run()
	first, second := durations[0], durations[1]
	if second < first {
		first, second = second, first
	}
	// The loser waits through the winner's full service time: its
	// completion takes at least ~1.5x a solo round trip.
	if float64(second) < 1.5*float64(first) {
		t.Errorf("single-slot shard did not serialize: %v vs %v", first, second)
	}
}
