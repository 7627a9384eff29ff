package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k      *sim.Kernel
	store  *Store
	caller *netsim.Node
	meter  *pricing.Meter
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(7)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	store := New("ddb", net, 9, rng.Fork(), cfg, pricing.Fall2018(), meter)
	caller := net.NewNode("caller", 0, netsim.Mbps(538))
	return &fixture{k: k, store: store, caller: caller, meter: meter}
}

func TestPutGet(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var got Item
	var err error
	f.k.Spawn("c", func(p *sim.Proc) {
		if _, err := f.store.Put(p, f.caller, "k", []byte("v")); err != nil {
			t.Errorf("Put: %v", err)
		}
		got, err = f.store.Get(p, f.caller, "k", true)
	})
	f.k.Run()
	if err != nil || string(got.Value) != "v" || got.Version != 1 {
		t.Errorf("got %+v err %v", got, err)
	}
}

func TestGetMissing(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var err error
	f.k.Spawn("c", func(p *sim.Proc) {
		_, err = f.store.Get(p, f.caller, "nope", true)
	})
	f.k.Run()
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v", err)
	}
}

// BenchmarkGetMiss is one eventually consistent read of an absent key per
// op on a 4-shard table with bounded shard concurrency, the retrystorm
// request's store path. A miss returns the bare ErrNotFound sentinel and
// the round trip rides recycled kernel machinery, so it allocates nothing
// once warm.
func BenchmarkGetMiss(b *testing.B) {
	cfg := DefaultConfig()
	cfg.ShardCount = 4
	cfg.ShardConcurrency = 4
	f := newFixture(b, cfg)
	keys := []string{"key/0000", "key/0001", "key/0002", "key/0003"} // one per shard
	f.k.Spawn("c", func(p *sim.Proc) {
		for _, key := range keys { // warm every shard's round-trip path
			f.store.Get(p, f.caller, key, false)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := f.store.Get(p, f.caller, keys[i%len(keys)], false); err != ErrNotFound {
				b.Fatalf("Get = %v, want ErrNotFound", err)
			}
		}
		b.StopTimer()
	})
	f.k.Run()
}

// Calibration: 1KB write+read should land near the paper's 11ms.
func TestWriteReadLatencyMatchesPaper(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	const trials = 1000
	var total sim.Time
	f.k.Spawn("c", func(p *sim.Proc) {
		v := make([]byte, 1024)
		for i := 0; i < trials; i++ {
			start := p.Now()
			if _, err := f.store.Put(p, f.caller, "k", v); err != nil {
				t.Errorf("Put: %v", err)
			}
			if _, err := f.store.Get(p, f.caller, "k", true); err != nil {
				t.Errorf("Get: %v", err)
			}
			total += p.Now() - start
		}
	})
	f.k.Run()
	mean := time.Duration(int64(total) / trials)
	if mean < 10*time.Millisecond || mean > 12*time.Millisecond {
		t.Errorf("1KB write+read mean = %v, paper reports 11ms", mean)
	}
}

func TestVersionsIncrement(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var v1, v2 int64
	f.k.Spawn("c", func(p *sim.Proc) {
		it, _ := f.store.Put(p, f.caller, "k", []byte("a"))
		v1 = it.Version
		it, _ = f.store.Put(p, f.caller, "k", []byte("b"))
		v2 = it.Version
	})
	f.k.Run()
	if v1 != 1 || v2 != 2 {
		t.Errorf("versions = %d, %d, want 1, 2", v1, v2)
	}
}

func TestConditionalPutCreateSemantics(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var firstErr, secondErr error
	f.k.Spawn("c", func(p *sim.Proc) {
		_, firstErr = f.store.ConditionalPut(p, f.caller, "lock", []byte("me"), 0)
		_, secondErr = f.store.ConditionalPut(p, f.caller, "lock", []byte("you"), 0)
	})
	f.k.Run()
	if firstErr != nil {
		t.Errorf("first conditional create failed: %v", firstErr)
	}
	if !errors.Is(secondErr, ErrConditionFailed) {
		t.Errorf("second conditional create: %v, want ErrConditionFailed", secondErr)
	}
}

func TestConditionalPutVersionMatch(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var okErr, staleErr error
	f.k.Spawn("c", func(p *sim.Proc) {
		it, _ := f.store.Put(p, f.caller, "k", []byte("v1"))
		_, okErr = f.store.ConditionalPut(p, f.caller, "k", []byte("v2"), it.Version)
		_, staleErr = f.store.ConditionalPut(p, f.caller, "k", []byte("v3"), it.Version)
	})
	f.k.Run()
	if okErr != nil {
		t.Errorf("matching conditional put failed: %v", okErr)
	}
	if !errors.Is(staleErr, ErrConditionFailed) {
		t.Errorf("stale conditional put: %v, want ErrConditionFailed", staleErr)
	}
}

func TestItemTooLarge(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var err error
	f.k.Spawn("c", func(p *sim.Proc) {
		_, err = f.store.Put(p, f.caller, "k", make([]byte, MaxItemSize+1))
	})
	f.k.Run()
	if !errors.Is(err, ErrItemTooLarge) {
		t.Errorf("err = %v, want ErrItemTooLarge", err)
	}
}

func TestEventualReadCanBeStale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationLag = 30 * time.Second
	f := newFixture(t, cfg)
	stale, fresh := false, false
	f.k.Spawn("c", func(p *sim.Proc) {
		f.store.Put(p, f.caller, "k", []byte("old"))
		p.Sleep(time.Minute) // old value fully replicated
		f.store.Put(p, f.caller, "k", []byte("new"))
		for i := 0; i < 60; i++ {
			it, err := f.store.Get(p, f.caller, "k", false)
			if err != nil {
				continue
			}
			switch string(it.Value) {
			case "old":
				stale = true
			case "new":
				fresh = true
			}
		}
		p.Sleep(time.Minute)
		it, err := f.store.Get(p, f.caller, "k", false)
		if err != nil || string(it.Value) != "new" {
			t.Errorf("read after lag window: %+v, %v", it, err)
		}
	})
	f.k.Run()
	if !stale || !fresh {
		t.Errorf("stale=%v fresh=%v, want both observed inside lag window", stale, fresh)
	}
}

func TestStronglyConsistentReadNeverStale(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReplicationLag = 30 * time.Second
	f := newFixture(t, cfg)
	f.k.Spawn("c", func(p *sim.Proc) {
		f.store.Put(p, f.caller, "k", []byte("old"))
		f.store.Put(p, f.caller, "k", []byte("new"))
		for i := 0; i < 50; i++ {
			it, err := f.store.Get(p, f.caller, "k", true)
			if err != nil || string(it.Value) != "new" {
				t.Errorf("consistent read saw %+v, %v", it, err)
				return
			}
		}
	})
	f.k.Run()
}

func TestScanReturnsPrefixSorted(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var items []Item
	f.k.Spawn("c", func(p *sim.Proc) {
		f.store.Put(p, f.caller, "node/2", []byte("b"))
		f.store.Put(p, f.caller, "node/1", []byte("a"))
		f.store.Put(p, f.caller, "other", []byte("x"))
		items = f.store.Scan(p, f.caller, "node/")
	})
	f.k.Run()
	if len(items) != 2 || items[0].Key != "node/1" || items[1].Key != "node/2" {
		t.Errorf("Scan = %+v", items)
	}
}

func TestScanMeteringScalesWithData(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		// 1000 nodes x ~250B: one scan should consume ~62 read units,
		// the assumption that reproduces the paper's $450/hr claim.
		v := make([]byte, 242)
		for i := 0; i < 1000; i++ {
			f.store.Put(p, f.caller, keyOf(i), v)
		}
		f.meter.Reset()
		f.store.Scan(p, f.caller, "node/")
	})
	f.k.Run()
	units := f.meter.Count("dynamodb.read")
	if units < 58 || units > 64 {
		t.Errorf("scan of 1000x250B items consumed %d units, want ~62", units)
	}
}

func keyOf(i int) string {
	return "node/" + string([]byte{byte('0' + i/100%10), byte('0' + i/10%10), byte('0' + i%10)})
}

func TestDeleteIdempotent(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var err error
	f.k.Spawn("c", func(p *sim.Proc) {
		f.store.Put(p, f.caller, "k", []byte("v"))
		f.store.Delete(p, f.caller, "k")
		f.store.Delete(p, f.caller, "k")
		_, err = f.store.Get(p, f.caller, "k", true)
	})
	f.k.Run()
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("after delete, Get = %v, want ErrNotFound", err)
	}
}

// TestValueIsCopied: a caller may mutate or reuse its buffer as soon as
// Put returns, on the copy path and the sharing path alike.
func TestValueIsCopied(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		buf := []byte("orig")
		for _, key := range []string{"a", "b"} { // a copy, then a share
			f.store.Put(p, f.caller, key, buf)
		}
		buf[0] = 'X'
		buf = append(buf[:0], "next"...)
		f.store.Put(p, f.caller, "c", buf)
		buf[0] = 'Y'
		for key, want := range map[string]string{"a": "orig", "b": "orig", "c": "next"} {
			if got, _ := f.store.Get(p, f.caller, key, true); string(got.Value) != want {
				t.Errorf("Get(%q) = %q, want %q: the stored value aliased the caller's buffer", key, got.Value, want)
			}
		}
	})
	f.k.Run()
}

// Property: per-key version numbers strictly increase across any write
// sequence, and a strongly consistent read always returns the last write.
func TestQuickPerKeyLinearizability(t *testing.T) {
	prop := func(writes []byte) bool {
		if len(writes) > 40 {
			writes = writes[:40]
		}
		f := struct {
			k     *sim.Kernel
			store *Store
		}{}
		f.k = sim.NewKernel()
		defer f.k.Close()
		rng := simrand.New(99)
		net := netsim.NewNetwork(f.k, rng.Fork(), netsim.DefaultLatency())
		f.store = New("ddb", net, 1, rng.Fork(), DefaultConfig(),
			pricing.Fall2018(), &pricing.Meter{})
		caller := net.NewNode("c", 0, netsim.Mbps(538))
		ok := true
		f.k.Spawn("c", func(p *sim.Proc) {
			var lastVer int64
			for _, w := range writes {
				it, err := f.store.Put(p, caller, "k", []byte{w})
				if err != nil || it.Version != lastVer+1 {
					ok = false
					return
				}
				lastVer = it.Version
				got, err := f.store.Get(p, caller, "k", true)
				if err != nil || got.Value[0] != w || got.Version != lastVer {
					ok = false
					return
				}
			}
		})
		f.k.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// stepCaller is a service.Caller whose trips end in one step.
type stepCaller struct {
	node *netsim.Node
	then func(*sim.Proc)
}

func (c *stepCaller) Node() *netsim.Node  { return c.node }
func (c *stepCaller) TripEnd(p *sim.Proc) { c.then(p) }

// A read through GetStep and GetResult, from a stepped process, returns
// what Get returns at the same point (a hit, a miss or a lagging replica's
// version), at the same time, and bills the same.
func TestGetStepReadsWhatGetReads(t *testing.T) {
	keys := []string{"k", "nope", "k", "k", "k"}
	run := func(stepped bool) (reads []string, cost pricing.USD) {
		f := newFixture(t, DefaultConfig())
		record := func(p *sim.Proc, it Item, err error) {
			reads = append(reads, fmt.Sprintf("%v %q v%d %v", p.Now(), it.Value, it.Version, err))
		}
		f.k.Spawn("c", func(p *sim.Proc) {
			for _, v := range []string{"v1", "v2"} {
				if _, err := f.store.Put(p, f.caller, "k", []byte(v)); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
			if !stepped {
				for _, key := range keys {
					it, err := f.store.Get(p, f.caller, key, false)
					record(p, it, err)
				}
				return
			}
			i := 0
			c := &stepCaller{node: f.caller}
			c.then = func(p *sim.Proc) {
				if i > 0 {
					it, err := f.store.GetResult(p, keys[i-1], false)
					record(p, it, err)
				}
				if i == len(keys) {
					p.Exit()
					return
				}
				f.store.GetStep(p, c, keys[i])
				i++
			}
			f.k.SpawnStep("s", c.then)
		})
		f.k.Run()
		return reads, f.meter.Total()
	}
	ref, refCost := run(false)
	got, cost := run(true)
	if fmt.Sprint(got) != fmt.Sprint(ref) || cost != refCost {
		t.Fatalf("stepped reads %q billed %v, Get read %q billed %v", got, cost, ref, refCost)
	}
	joined := strings.Join(ref, "\n")
	for _, want := range []string{`"v2" v2 <nil>`, `"v1" v1 <nil>`, ErrNotFound.Error()} {
		if !strings.Contains(joined, want) {
			t.Errorf("the reads never returned %s:\n%s", want, joined)
		}
	}
}
