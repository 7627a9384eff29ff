package statecache

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// newZeroLatFixture builds a fixture whose fabric delivers every message
// in zero virtual time: Const(0) one-way delays consume no RNG draws and
// the node bandwidth below rounds any transfer to 0ns, so message sizes
// and counts cannot shift timing or randomness. This is what makes the
// digest and IBF protocols bit-comparable: with identical timing, both
// must produce identical merges and identical staleness samples.
func newZeroLatFixture(t *testing.T, cfg Config, seed uint64) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(seed)
	zero := netsim.LatencyProfile{
		SameHost:  simrand.Const(0),
		SameRack:  simrand.Const(0),
		CrossRack: simrand.Const(0),
	}
	net := netsim.NewNetwork(k, rng.Fork(), zero)
	meter := &pricing.Meter{}
	catalog := pricing.Fall2018()
	store := kvstore.New("ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(), catalog, meter)
	cl := New("cache", net, store, rng.Fork(), cfg, catalog, meter)
	return &fixture{k: k, net: net, store: store, meter: meter, cl: cl}
}

// equivRun is everything one protocol run exposes for comparison.
type equivRun struct {
	rounds   int64
	aborted  int64
	count    int
	sum, max time.Duration
	p50, p99 time.Duration
	state    map[string]string // "replica/kind/key" -> rendered state
}

// runEquivWorkload drives a randomized multi-lattice workload (with a
// mid-run WAN partition) over a zero-latency cluster and snapshots everything
// observable: per-replica state for every key, staleness sample
// statistics, and round counts.
func runEquivWorkload(t *testing.T, seed uint64, reconcile bool) equivRun {
	t.Helper()
	const (
		replicaCount = 5
		opCount      = 300
		keyCount     = 8
		window       = 2 * time.Second
	)
	cfg := DefaultConfig()
	cfg.GossipInterval = 40 * time.Millisecond
	cfg.FlushInterval = 300 * time.Millisecond
	cfg.Reconcile = reconcile
	f := newZeroLatFixture(t, cfg, seed)
	caches := attachSplit(f, replicaCount, netsim.Bps(1e15), netsim.Bps(1e15), simrand.Const(0))

	opRNG := simrand.New(seed * 977)
	f.k.Spawn("driver", func(p *sim.Proc) {
		for op := 0; op < opCount; op++ {
			c := caches[opRNG.Intn(len(caches))]
			key := fmt.Sprintf("k%d", opRNG.Intn(keyCount))
			switch opRNG.Intn(4) {
			case 0:
				c.AddCounter(p, "pn/"+key, int64(opRNG.Intn(21)-10))
			case 1:
				c.IncGCounter(p, "g/"+key, int64(opRNG.Intn(10)))
			case 2:
				c.SetRegister(p, "reg/"+key, fmt.Sprintf("v%d", op))
			default:
				elem := fmt.Sprintf("e%d", opRNG.Intn(12))
				if opRNG.Float64() < 0.7 {
					c.AddSet(p, "set/"+key, elem)
				} else {
					c.RemoveSet(p, "set/"+key, elem)
				}
			}
			p.Sleep(time.Duration(opRNG.Intn(3_000_000)))
		}
	})
	f.k.RunUntil(sim.Time(window))
	f.net.HealRegions(0, 1)
	f.k.RunUntil(f.k.Now() + sim.Time(time.Second))

	run := equivRun{
		rounds:  f.cl.GossipRounds(),
		aborted: f.cl.AbortedRounds(),
		count:   f.cl.Staleness().Count(),
		sum:     f.cl.Staleness().Sum(),
		max:     f.cl.Staleness().Max(),
		p50:     f.cl.Staleness().Percentile(50),
		p99:     f.cl.Staleness().Percentile(99),
		state:   map[string]string{},
	}
	for i, c := range caches {
		for k := 0; k < keyCount; k++ {
			key := fmt.Sprintf("k%d", k)
			run.state[fmt.Sprintf("%d/pn/%s", i, key)] = fmt.Sprint(c.PeekCounter("pn/" + key))
			run.state[fmt.Sprintf("%d/g/%s", i, key)] = fmt.Sprint(c.PeekGCounter("g/" + key))
			run.state[fmt.Sprintf("%d/reg/%s", i, key)] = c.PeekRegister("reg/" + key)
			run.state[fmt.Sprintf("%d/set/%s", i, key)] = fmt.Sprint(c.PeekSet("set/" + key))
		}
	}
	return run
}

// TestReconProtocolEquivalence is the oracle test: over seeds 1–20, the
// IBF protocol must be observationally identical to the digest protocol —
// same converged lattice state on every replica, the same staleness
// samples (count, sum, max, percentiles), and the same number of
// completed rounds.
func TestReconProtocolEquivalence(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			digest := runEquivWorkload(t, seed, false)
			ibf := runEquivWorkload(t, seed, true)
			if digest.rounds != ibf.rounds || digest.aborted != ibf.aborted {
				t.Errorf("rounds digest=%d/%d ibf=%d/%d",
					digest.rounds, digest.aborted, ibf.rounds, ibf.aborted)
			}
			if digest.count != ibf.count || digest.sum != ibf.sum ||
				digest.max != ibf.max || digest.p50 != ibf.p50 || digest.p99 != ibf.p99 {
				t.Errorf("staleness diverged:\n digest count=%d sum=%v max=%v p50=%v p99=%v\n ibf    count=%d sum=%v max=%v p50=%v p99=%v",
					digest.count, digest.sum, digest.max, digest.p50, digest.p99,
					ibf.count, ibf.sum, ibf.max, ibf.p50, ibf.p99)
			}
			for k, v := range digest.state {
				if ibf.state[k] != v {
					t.Errorf("state %s: digest=%q ibf=%q", k, v, ibf.state[k])
				}
			}
		})
	}
}

// settleAll forces both replicas' deferred refreshes into their filters.
func settleAll(caches ...*Cache) {
	for _, c := range caches {
		c.settleRecon()
	}
}

// diffBothWays runs diffKeys (the digest oracle) and resolveDiff (the IBF
// path, at live-filter size) on the same pair and asserts they agree,
// returning the shared diff. Cloned because both reuse a's scratch.
func diffBothWays(t *testing.T, a, b *Cache) []string {
	t.Helper()
	settleAll(a, b)
	want := slices.Clone(diffKeys(a, b))
	got, _, ok := resolveDiff(a, b, a.rc.live, b.rc.live)
	if !ok {
		t.Fatalf("IBF decode failed on a %d-key difference", len(want))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("diff mismatch:\n ibf    %v\n digest %v", got, want)
	}
	return slices.Clone(got)
}

// quietCfg keeps the background gossip/flush processes out of the way so
// tests can drive rounds by hand.
func quietCfg(reconcile bool) Config {
	cfg := DefaultConfig()
	cfg.GossipInterval = time.Hour
	cfg.FlushInterval = time.Hour
	cfg.Reconcile = reconcile
	return cfg
}

// TestReconAdversarialShapes pits resolveDiff against diffKeys on the
// worst-case key-set geometries.
func TestReconAdversarialShapes(t *testing.T) {
	t.Run("disjoint", func(t *testing.T) {
		f := newFixture(t, quietCfg(true), 3)
		a := f.cl.Attach(f.node(t, "vm-a"))
		b := f.cl.Attach(f.node(t, "vm-b"))
		f.k.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 40; i++ {
				a.AddCounter(p, fmt.Sprintf("a%03d", i), int64(i))
				b.AddCounter(p, fmt.Sprintf("b%03d", i), int64(i))
			}
		})
		f.k.RunUntil(sim.Time(time.Second))
		if diff := diffBothWays(t, a, b); len(diff) != 80 {
			t.Errorf("disjoint diff has %d keys, want 80", len(diff))
		}
	})
	t.Run("one-empty", func(t *testing.T) {
		f := newFixture(t, quietCfg(true), 4)
		a := f.cl.Attach(f.node(t, "vm-a"))
		b := f.cl.Attach(f.node(t, "vm-b"))
		f.k.Spawn("driver", func(p *sim.Proc) {
			for i := 0; i < 60; i++ {
				a.AddSet(p, fmt.Sprintf("k%03d", i), "x")
			}
		})
		f.k.RunUntil(sim.Time(time.Second))
		if diff := diffBothWays(t, a, b); len(diff) != 60 {
			t.Errorf("one-empty diff has %d keys, want 60", len(diff))
		}
	})
	t.Run("hash-equal-kind-distinct", func(t *testing.T) {
		// A 64-bit hash collision across kinds is ~2⁻⁶⁴, so force one
		// white-box: both protocols compare hashes only, and both must
		// exclude the key — the digest walk because the digests match, the
		// IBF because equal (key, hash) elements cancel in subtraction.
		// That equivalence is what keeps the IBF path from introducing a
		// new kind-mismatch merge panic the digest path doesn't have.
		f := newFixture(t, quietCfg(true), 5)
		a := f.cl.Attach(f.node(t, "vm-a"))
		b := f.cl.Attach(f.node(t, "vm-b"))
		f.k.Spawn("driver", func(p *sim.Proc) {
			a.SetRegister(p, "clash", "v1")
			b.AddSet(p, "clash", "e1")
			a.AddCounter(p, "normal", 1)
		})
		f.k.RunUntil(sim.Time(time.Second))
		settleAll(a, b)
		forced := uint64(0xfeedface12345678)
		for _, c := range []*Cache{a, b} {
			e := c.entries["clash"]
			c.reconRehash("clash", e.hash, forced)
			e.hash = forced
		}
		diff := diffBothWays(t, a, b)
		if slices.Contains(diff, "clash") {
			t.Errorf("hash-equal kind-distinct key surfaced in diff %v", diff)
		}
		if !slices.Contains(diff, "normal") {
			t.Errorf("real difference missing from diff %v", diff)
		}
	})
}

// TestReconSingleKeyDiffAtMillionSharedKeys is the tentpole's operating
// point: 10⁶ shared keys, one write. The constant-size live summary must
// peel exactly the written key — no escalation, no O(keys) scan — and a
// full manual round must converge the pair while moving only that key.
func TestReconSingleKeyDiffAtMillionSharedKeys(t *testing.T) {
	if testing.Short() {
		t.Skip("preloads 2×10⁶ entries")
	}
	f := newFixture(t, quietCfg(true), 6)
	a := f.cl.Attach(f.node(t, "vm-a"))
	b := f.cl.Attach(f.node(t, "vm-b"))
	for i := 0; i < 1_000_000; i++ {
		key := fmt.Sprintf("k%07d", i)
		a.Preload(key, "v0")
		b.Preload(key, "v0")
	}
	f.k.Spawn("driver", func(p *sim.Proc) {
		a.SetRegister(p, "k0500000", "hot")
	})
	f.k.RunUntil(sim.Time(time.Millisecond))
	diff := diffBothWays(t, a, b)
	if len(diff) != 1 || diff[0] != "k0500000" {
		t.Fatalf("diff = %v, want exactly [k0500000]", diff)
	}
	before := f.cl.GossipBytes()
	f.k.Spawn("round", func(p *sim.Proc) { a.gossipOnce(p) })
	f.k.RunUntil(f.k.Now() + sim.Time(time.Second))
	if got := b.PeekRegister("k0500000"); got != "hot" {
		t.Errorf("peer register = %q after round, want %q", got, "hot")
	}
	delta := f.cl.GossipBytes()
	summary := delta.Summary - before.Summary
	// One live summary: overhead + cells, nowhere near the ~32MB digest.
	if maxSummary := int64(16 * 1024); summary > maxSummary {
		t.Errorf("summary leg cost %d bytes, want ≤ %d (no escalation)", summary, maxSummary)
	}
	if payload := delta.Payload - before.Payload; payload > 4096 {
		t.Errorf("payload leg cost %d bytes for a one-key diff", payload)
	}
}

// TestDetachMidRoundCountsAborted is the round-accounting regression: a
// peer reclaimed while the digest is in flight must land in
// AbortedRounds, not GossipRounds (which used to count it up front).
func TestDetachMidRoundCountsAborted(t *testing.T) {
	for _, reconcile := range []bool{false, true} {
		t.Run(fmt.Sprintf("reconcile=%v", reconcile), func(t *testing.T) {
			f := newFixture(t, quietCfg(reconcile), 7)
			a := f.cl.Attach(f.node(t, "vm-a"))
			b := f.cl.Attach(f.node(t, "vm-b"))
			for i := 0; i < 5000; i++ {
				a.Preload(fmt.Sprintf("k%05d", i), "v0")
			}
			f.k.Spawn("round", func(p *sim.Proc) { a.gossipOnce(p) })
			f.k.Spawn("reclaim", func(p *sim.Proc) {
				// Inside the summary's flight time (≥ same-rack one-way
				// delay of ~127µs, plus ~2.5ms of transfer in digest mode).
				p.Sleep(100 * time.Microsecond)
				b.Detach()
			})
			f.k.RunUntil(sim.Time(time.Second))
			if got := f.cl.AbortedRounds(); got != 1 {
				t.Errorf("AbortedRounds = %d, want 1", got)
			}
			if got := f.cl.GossipRounds(); got != 0 {
				t.Errorf("GossipRounds = %d, want 0 (round aborted)", got)
			}
		})
	}
}

// TestPreloadSharedRegisterCloneOnWrite: preloaded entries share one
// template register; a write or merge must unshare before mutating, so
// the write cannot leak into sibling keys or the other replica's
// untouched entries.
func TestPreloadSharedRegisterCloneOnWrite(t *testing.T) {
	cfg := quietCfg(true)
	f := newFixture(t, cfg, 8)
	a := f.cl.Attach(f.node(t, "vm-a"))
	b := f.cl.Attach(f.node(t, "vm-b"))
	for _, key := range []string{"k0", "k1", "k2"} {
		a.Preload(key, "v0")
		b.Preload(key, "v0")
	}
	f.k.Spawn("driver", func(p *sim.Proc) {
		a.SetRegister(p, "k1", "new")
	})
	f.k.RunUntil(sim.Time(time.Millisecond))
	f.k.Spawn("round", func(p *sim.Proc) { a.gossipOnce(p) })
	f.k.RunUntil(f.k.Now() + sim.Time(time.Second))
	for _, c := range []*Cache{a, b} {
		for _, key := range []string{"k0", "k2"} {
			if got := c.PeekRegister(key); got != "v0" {
				t.Errorf("%s %s = %q, want untouched %q", c.replica, key, got, "v0")
			}
			if !c.entries[key].sharedReg {
				t.Errorf("%s %s lost its shared template without being written", c.replica, key)
			}
		}
		if got := c.PeekRegister("k1"); got != "new" {
			t.Errorf("%s k1 = %q, want %q", c.replica, got, "new")
		}
		if c.entries["k1"].sharedReg {
			t.Errorf("%s k1 still shares the template after mutation", c.replica)
		}
	}
}

// TestKeyIndexDoublesWhenFull: the sorted key slice and its aligned entry
// slice double when full, on the ascending append path of a bulk preload
// and on the sorted-insert path alike, so n inserts leave the index at the
// next power of two at or above n. append alone grows by about 1.25x past
// 256 entries.
func TestKeyIndexDoublesWhenFull(t *testing.T) {
	f := newFixture(t, quietCfg(true), 8)
	c := f.cl.Attach(f.node(t, "vm-a"))
	check := func(n int) {
		t.Helper()
		want := 1
		for want < n {
			want *= 2
		}
		if len(c.keys) != n || cap(c.keys) != want || cap(c.ents) != want {
			t.Fatalf("after %d inserts: %d keys, capacities %d and %d, want %d", n, len(c.keys), cap(c.keys), cap(c.ents), want)
		}
	}
	const n = 5000
	for i := range n {
		c.Preload(fmt.Sprintf("k%05d", 2*i), "v")
		check(i + 1)
	}
	// Odd keys land between the preloaded ones, through slices.Insert.
	for i := range n {
		c.Preload(fmt.Sprintf("k%05d", 2*i+1), "v")
		check(n + i + 1)
	}
	if !slices.IsSorted(c.keys) {
		t.Error("keys are not sorted")
	}
	for i, k := range c.keys {
		if c.ents[i] != c.entries[k] {
			t.Fatalf("ents[%d] is not the entry of %q", i, k)
		}
	}
}
