package statecache

// Randomized gossip-convergence property test: N replicas absorb a random
// interleaving of writes to all four lattice types while the cluster is
// split into two halves (replicas 0–1 in region 1 behind a severed WAN
// trunk), then the trunk heals and anti-entropy runs with no further
// writes. Every replica must converge to the same state, and that state
// must equal the reference: exact arithmetic for the counters, the
// lexicographic-max write for the register, and — for the OR-set — a
// superset check plus pairwise equality (add-wins keeps concurrently
// re-added elements, so the reference for removed elements is convergence
// itself).

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type regWrite struct {
	replica string
	stamp   int64
	val     string
}

// wins mirrors crdt.LWWRegister's (stamp, replica, val) lexicographic max.
func (w regWrite) wins(o regWrite) bool {
	switch {
	case w.stamp != o.stamp:
		return w.stamp > o.stamp
	case w.replica != o.replica:
		return w.replica > o.replica
	default:
		return w.val > o.val
	}
}

func TestRandomizedPartitionedConvergence(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			testPartitionedConvergence(t, seed, func(*Config) {})
		})
	}
}

// The same property under IBF reconciliation: partitions build up
// differences, healing drains them, and every replica must still land on
// the reference state.
func TestRandomizedPartitionedConvergenceRecon(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			testPartitionedConvergence(t, seed, func(cfg *Config) { cfg.Reconcile = true })
		})
	}
}

// With a summary far too small for any real difference, every round runs
// the 2×/4× escalation ladder into the digest fallback — convergence must
// not depend on decode ever succeeding.
func TestReconFallbackStillConverges(t *testing.T) {
	for seed := uint64(1); seed <= 2; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			testPartitionedConvergence(t, seed, func(cfg *Config) {
				cfg.Reconcile = true
				cfg.ReconCells = 3
			})
		})
	}
}

// attachSplit attaches n replicas with the given NIC capacity, building
// replicas 0–1 in region 1 and the rest beside the backing store in region
// 0. It joins the regions with a trunk of the given capacity and one-way
// latency and severs it, so replicas 0..1 cannot gossip with 2..n-1
// (either direction) until HealRegions(0, 1).
func attachSplit(f *fixture, n int, nic, trunk netsim.Bps, lat simrand.Dist) []*Cache {
	f.net.ConnectRegions(0, 1, trunk, lat)
	caches := make([]*Cache, n)
	for i := range caches {
		region := 0
		if i < 2 {
			region = 1
		}
		prev := f.net.SetBuildRegion(region)
		caches[i] = f.cl.Attach(f.net.NewNode(fmt.Sprintf("vm-%d", i), 1, nic))
		f.net.SetBuildRegion(prev)
	}
	f.net.PartitionRegions(0, 1)
	return caches
}

func testPartitionedConvergence(t *testing.T, seed uint64, tweak func(*Config)) {
	const (
		replicaCount = 5
		opCount      = 400
		keyCount     = 6
		window       = 2 * time.Second
	)
	cfg := DefaultConfig()
	cfg.GossipInterval = 40 * time.Millisecond
	cfg.FlushInterval = 300 * time.Millisecond
	tweak(&cfg)
	f := newFixture(t, cfg, seed)
	caches := attachSplit(f, replicaCount, netsim.Mbps(538),
		netsim.Gbps(1), netsim.WANUniform(30*time.Millisecond, 2*time.Millisecond))

	var (
		counterRef  int64
		gcounterRef int64
		regRef      regWrite
		added       = map[string]bool{}
		removed     = map[string]bool{}
	)
	opRNG := simrand.New(seed * 977)
	f.k.Spawn("driver", func(p *sim.Proc) {
		for op := 0; op < opCount; op++ {
			c := caches[opRNG.Intn(len(caches))]
			key := fmt.Sprintf("k%d", opRNG.Intn(keyCount))
			switch opRNG.Intn(4) {
			case 0:
				d := int64(opRNG.Intn(21) - 10)
				c.AddCounter(p, "pn/"+key, d)
				counterRef += d
			case 1:
				n := int64(opRNG.Intn(10))
				c.IncGCounter(p, "g/"+key, n)
				gcounterRef += n
			case 2:
				w := regWrite{replica: c.replica, stamp: int64(p.Now()), val: fmt.Sprintf("v%d", op)}
				c.SetRegister(p, "reg/shared", w.val)
				if regRef == (regWrite{}) || w.wins(regRef) {
					regRef = w
				}
			default:
				elem := fmt.Sprintf("e%d", opRNG.Intn(12))
				if opRNG.Float64() < 0.7 {
					c.AddSet(p, "set/shared", elem)
					added[elem] = true
				} else {
					c.RemoveSet(p, "set/shared", elem)
					removed[elem] = true
				}
			}
			p.Sleep(time.Duration(opRNG.Intn(3_000_000))) // 0-3ms between ops
		}
	})
	f.k.RunUntil(sim.Time(window))

	// Writes done; heal and let anti-entropy finish.
	f.net.HealRegions(0, 1)
	f.k.RunUntil(f.k.Now() + sim.Time(time.Second))

	// Sum the replicas' PN totals via one replica after convergence; all
	// replicas must agree pairwise on every surface.
	base := caches[0]
	var pnTotal, gTotal int64
	for k := 0; k < keyCount; k++ {
		pnTotal += base.PeekCounter(fmt.Sprintf("pn/k%d", k))
		gTotal += base.PeekGCounter(fmt.Sprintf("g/k%d", k))
	}
	if pnTotal != counterRef {
		t.Errorf("PN-counter total = %d, want reference %d", pnTotal, counterRef)
	}
	if gTotal != gcounterRef {
		t.Errorf("G-counter total = %d, want reference %d", gTotal, gcounterRef)
	}
	if regRef != (regWrite{}) {
		if got := base.PeekRegister("reg/shared"); got != regRef.val {
			t.Errorf("register = %q, want reference winner %q", got, regRef.val)
		}
	}
	elems := base.PeekSet("set/shared")
	have := map[string]bool{}
	for _, e := range elems {
		have[e] = true
	}
	for e := range added {
		if !removed[e] && !have[e] {
			t.Errorf("set lost element %q (added, never removed)", e)
		}
	}
	for _, e := range elems {
		if !added[e] {
			t.Errorf("set invented element %q", e)
		}
	}

	for i, c := range caches[1:] {
		for k := 0; k < keyCount; k++ {
			pk, gk := fmt.Sprintf("pn/k%d", k), fmt.Sprintf("g/k%d", k)
			if c.PeekCounter(pk) != base.PeekCounter(pk) {
				t.Errorf("replica %d diverged on %s: %d != %d", i+1, pk, c.PeekCounter(pk), base.PeekCounter(pk))
			}
			if c.PeekGCounter(gk) != base.PeekGCounter(gk) {
				t.Errorf("replica %d diverged on %s", i+1, gk)
			}
		}
		if c.PeekRegister("reg/shared") != base.PeekRegister("reg/shared") {
			t.Errorf("replica %d diverged on register", i+1)
		}
		if !reflect.DeepEqual(c.PeekSet("set/shared"), base.PeekSet("set/shared")) {
			t.Errorf("replica %d diverged on set: %v != %v", i+1, c.PeekSet("set/shared"), base.PeekSet("set/shared"))
		}
	}
}
