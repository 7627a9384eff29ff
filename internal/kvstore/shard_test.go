package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

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

// TestShardedDataPlane: reads, writes, scans and batches on a sharded
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
		// Batches spanning shards.
		var keys []string
		for i := 0; i < 20; i++ {
			keys = append(keys, fmt.Sprintf("k/%02d", i))
		}
		got, err := f.store.BatchGet(p, f.caller, keys, true)
		if err != nil || len(got) != 20 {
			t.Errorf("cross-shard BatchGet: n=%d err=%v", len(got), err)
		}
		writes := map[string][]byte{}
		for i := 0; i < 10; i++ {
			writes[fmt.Sprintf("k/%02d", i)] = []byte("w2")
		}
		out, err := f.store.BatchWrite(p, f.caller, writes)
		if err != nil || len(out) != 10 {
			t.Errorf("cross-shard BatchWrite: n=%d err=%v", len(out), err)
		}
		for k, it := range out {
			if it.Version != 2 {
				t.Errorf("batch-written %s version = %d, want 2", k, it.Version)
			}
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

// TestEmptyBatchStillPaysRoundTrip: the unsharded store billed an empty
// batch as one API request (a full round trip); the sharded code path must
// preserve that, at any shard count.
func TestEmptyBatchStillPaysRoundTrip(t *testing.T) {
	for _, shards := range []int{1, 4} {
		f := newShardedFixture(t, shards, 0)
		var getElapsed, writeElapsed sim.Time
		f.k.Spawn("c", func(p *sim.Proc) {
			start := p.Now()
			if got, err := f.store.BatchGet(p, f.caller, nil, true); err != nil || len(got) != 0 {
				t.Errorf("empty BatchGet: n=%d err=%v", len(got), err)
			}
			getElapsed = p.Now() - start
			start = p.Now()
			if out, err := f.store.BatchWrite(p, f.caller, nil); err != nil || len(out) != 0 {
				t.Errorf("empty BatchWrite: n=%d err=%v", len(out), err)
			}
			writeElapsed = p.Now() - start
		})
		f.k.Run()
		// A round trip is at least the ~4.15ms service time.
		if getElapsed < sim.Time(time.Millisecond) {
			t.Errorf("shards=%d: empty BatchGet took %v, want a full round trip", shards, getElapsed)
		}
		if writeElapsed < sim.Time(time.Millisecond) {
			t.Errorf("shards=%d: empty BatchWrite took %v, want a full round trip", shards, writeElapsed)
		}
	}
}

// TestShardStatsSurface: per-shard request metering and the hot-shard
// surface reflect where traffic actually went.
func TestShardStatsSurface(t *testing.T) {
	f := newShardedFixture(t, 4, 0)
	const hotKey = "hot/key"
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 32; i++ {
			if _, err := f.store.Put(p, f.caller, hotKey, []byte("v")); err != nil {
				t.Errorf("Put: %v", err)
			}
		}
		for i := 0; i < 4; i++ {
			_, _ = f.store.Put(p, f.caller, fmt.Sprintf("cold/%d", i), []byte("v"))
		}
	})
	f.k.Run()

	stats := f.store.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("ShardStats len = %d, want 4", len(stats))
	}
	var total int64
	items := 0
	for i, st := range stats {
		if st.Shard != i {
			t.Errorf("stat %d has Shard %d", i, st.Shard)
		}
		total += st.Requests
		items += st.Items
		if st.Requests > 0 && st.Busy <= 0 {
			t.Errorf("shard %d served %d requests with zero busy time", i, st.Requests)
		}
	}
	if total != 36 {
		t.Errorf("total shard requests = %d, want 36", total)
	}
	if items != f.store.Len() {
		t.Errorf("shard item sum = %d, Len = %d", items, f.store.Len())
	}
	hot := stats[0]
	for _, st := range stats[1:] {
		if st.Requests > hot.Requests {
			hot = st
		}
	}
	if hot.Shard != f.store.ShardFor(hotKey) {
		t.Errorf("hottest shard = %d, want %d (owner of the hot key)", hot.Shard, f.store.ShardFor(hotKey))
	}
	if hot.Requests < 32 {
		t.Errorf("hottest shard served %d requests, want >= 32", hot.Requests)
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
