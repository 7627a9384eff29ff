package kvstore

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type globalFixture struct {
	k      *sim.Kernel
	net    *netsim.Network
	gt     *GlobalTable
	meter  *pricing.Meter
	caller [2]*netsim.Node // one client node per region
}

func newGlobalFixture(t *testing.T) *globalFixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(11)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	net.SetBuildRegion(1)
	net.SetBuildRegion(0)
	net.ConnectRegions(0, 1, netsim.Gbps(1), netsim.WANUniform(30*time.Millisecond, 2*time.Millisecond))
	meter := &pricing.Meter{}
	gt := NewGlobal("gdb", net, 9, rng.Fork(), DefaultConfig(),
		[]int{0, 1}, pricing.Fall2018(), meter)
	f := &globalFixture{k: k, net: net, gt: gt, meter: meter}
	for r := 0; r < 2; r++ {
		prev := net.SetBuildRegion(r)
		f.caller[r] = net.NewNode([]string{"client-east", "client-west"}[r], 0, netsim.Mbps(538))
		net.SetBuildRegion(prev)
	}
	return f
}

// runFor advances the kernel to the given sim time and stops the table's
// replicators so the kernel can drain.
func (f *globalFixture) runFor(t *testing.T, d time.Duration) {
	t.Helper()
	f.k.RunUntil(sim.Time(d))
	f.gt.Close()
	f.k.Run()
}

func TestGlobalReplicatesWrites(t *testing.T) {
	f := newGlobalFixture(t)
	f.k.Spawn("writer", func(p *sim.Proc) {
		if _, err := f.gt.stores[0].Put(p, f.caller[0], "user:1", []byte("east")); err != nil {
			t.Errorf("Put: %v", err)
		}
	})
	f.runFor(t, 2*time.Second)
	var got Item
	var err error
	f.k.Spawn("reader", func(p *sim.Proc) {
		got, err = f.gt.StoreIn(f.caller[1].Region()).Get(p, f.caller[1], "user:1", true)
	})
	f.k.Run()
	if err != nil || string(got.Value) != "east" {
		t.Fatalf("west replica: got %+v err %v", got, err)
	}
	if f.gt.Replicated() != 1 || f.gt.LostBatches() != 0 {
		t.Errorf("Replicated = %d, LostBatches = %d", f.gt.Replicated(), f.gt.LostBatches())
	}
	if pendingWrites(f.gt) != 0 {
		t.Errorf("pendingWrites = %d after quiescence", pendingWrites(f.gt))
	}
	if b := f.net.WANBytes(0, 1); b == 0 {
		t.Errorf("replication shipped zero WAN bytes")
	}
}

// TestGlobalReplicatedEqualValuesApply: a replicated write still applies
// when its bytes equal the peer shard's last stored copy, and then
// shares that copy, while a write of new bytes replicates as a copy.
func TestGlobalReplicatedEqualValuesApply(t *testing.T) {
	f := newGlobalFixture(t)
	f.k.Spawn("writers", func(p *sim.Proc) {
		if _, err := f.gt.stores[1].Put(p, f.caller[1], "a", []byte("shared")); err != nil {
			t.Errorf("Put(a): %v", err)
		}
		for _, w := range [][2]string{{"b", "shared"}, {"c", "fresh"}} {
			if _, err := f.gt.stores[0].Put(p, f.caller[0], w[0], []byte(w[1])); err != nil {
				t.Errorf("Put(%s): %v", w[0], err)
			}
		}
	})
	f.runFor(t, 2*time.Second)
	got := make(map[string]Item)
	f.k.Spawn("reader", func(p *sim.Proc) {
		for _, key := range []string{"a", "b", "c"} {
			it, err := f.gt.stores[1].Get(p, f.caller[1], key, true)
			if err != nil {
				t.Errorf("west Get(%q): %v", key, err)
			}
			got[key] = it
		}
	})
	f.k.Run()
	for key, want := range map[string]string{"a": "shared", "b": "shared", "c": "fresh"} {
		if it := got[key]; string(it.Value) != want || it.Version != 1 {
			t.Errorf("west %q = %+v, want %q at version 1", key, it, want)
		}
	}
	if a, b := got["a"].Value, got["b"].Value; len(a) == 0 || len(b) == 0 || &a[0] != &b[0] {
		t.Error("the replicated equal value was stored as a second copy")
	}
	if f.gt.Replicated() != 3 {
		t.Errorf("Replicated = %d, want 3", f.gt.Replicated())
	}
}

// A partition must neither drop nor double-apply (nor double-bill) writes:
// many writes to one key while the trunk is down replicate as exactly one
// write after heal.
func TestGlobalPartitionExactlyOnce(t *testing.T) {
	f := newGlobalFixture(t)
	f.net.PartitionRegions(0, 1)
	f.k.Spawn("writer", func(p *sim.Proc) {
		for i := 0; i < 50; i++ {
			v := []byte{byte(i)}
			if _, err := f.gt.stores[0].Put(p, f.caller[0], "hot", v); err != nil {
				t.Errorf("Put: %v", err)
			}
			p.Sleep(20 * time.Millisecond)
		}
	})
	f.k.Spawn("healer", func(p *sim.Proc) {
		p.Sleep(2 * time.Second)
		if f.gt.Replicated() != 0 {
			t.Errorf("replicated %d writes across a partition", f.gt.Replicated())
		}
		if pendingWrites(f.gt) != 1 {
			t.Errorf("pendingWrites = %d during partition, want 1 (deduped)", pendingWrites(f.gt))
		}
		f.net.HealRegions(0, 1)
	})
	before := f.meter.Total()
	f.runFor(t, 4*time.Second)
	var got Item
	f.k.Spawn("reader", func(p *sim.Proc) {
		var err error
		got, err = f.gt.stores[1].Get(p, f.caller[1], "hot", true)
		if err != nil {
			t.Errorf("Get after heal: %v", err)
		}
	})
	f.k.Run()
	if !bytes.Equal(got.Value, []byte{49}) {
		t.Errorf("west replica has %v, want the final write", got.Value)
	}
	if f.gt.Replicated() != 1 {
		t.Errorf("Replicated = %d, want exactly 1 after heal", f.gt.Replicated())
	}
	// 50 local writes, 1 replicated: the replication line bills one write
	// unit, not fifty.
	replCost := f.meter.Cost("dynamodb.repl")
	oneUnit := pricing.Fall2018().DynamoWritePerUnit
	if replCost != oneUnit {
		t.Errorf("dynamodb.repl cost = %v, want one write unit %v (total %v → %v)",
			replCost, oneUnit, before, f.meter.Total())
	}
}

// Concurrent writes in both regions converge: every replica ends with the
// same value, chosen last-writer-wins on the originating stamp.
func TestGlobalLastWriterWinsConvergence(t *testing.T) {
	f := newGlobalFixture(t)
	f.k.Spawn("east", func(p *sim.Proc) {
		if _, err := f.gt.stores[0].Put(p, f.caller[0], "k", []byte("east")); err != nil {
			t.Errorf("Put: %v", err)
		}
	})
	f.k.Spawn("west", func(p *sim.Proc) {
		p.Sleep(time.Millisecond) // strictly later origin stamp
		if _, err := f.gt.stores[1].Put(p, f.caller[1], "k", []byte("west")); err != nil {
			t.Errorf("Put: %v", err)
		}
	})
	f.runFor(t, 2*time.Second)
	var vals [2][]byte
	f.k.Spawn("reader", func(p *sim.Proc) {
		for slot := 0; slot < 2; slot++ {
			it, err := f.gt.stores[slot].Get(p, f.caller[slot], "k", true)
			if err != nil {
				t.Errorf("Get slot %d: %v", slot, err)
			}
			vals[slot] = it.Value
		}
	})
	f.k.Run()
	if !bytes.Equal(vals[0], vals[1]) {
		t.Fatalf("replicas diverged: %q vs %q", vals[0], vals[1])
	}
	if string(vals[0]) != "west" {
		t.Errorf("converged to %q, want the later write %q", vals[0], "west")
	}
}

// Duplicate replication delivery must be idempotent.
func TestApplyReplicatedIdempotent(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("c", func(p *sim.Proc) {
		now := p.Now()
		if !f.store.applyReplicated(now, "k", []byte("v"), sim.Time(5), 1) {
			t.Errorf("first delivery not applied")
		}
		if f.store.applyReplicated(now, "k", []byte("v"), sim.Time(5), 1) {
			t.Errorf("duplicate delivery applied twice")
		}
		it, err := f.store.Get(p, f.caller, "k", true)
		if err != nil || it.Version != 1 {
			t.Errorf("after duplicate: %+v err %v", it, err)
		}
	})
	f.k.Run()
}

// pendingWrites reports how many deduplicated writes are queued for
// cross-region shipping (all source/destination pairs).
func pendingWrites(gt *GlobalTable) int {
	n := 0
	for _, m := range gt.pending {
		n += len(m)
	}
	return n
}
