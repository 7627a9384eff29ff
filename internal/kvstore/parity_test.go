package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// parityGolden is the digest of the scripted workload below (seed 42).
// Its first 22 lines, through get-settled, were captured on the
// pre-refactor single-node Store before the service-layer extraction and
// sharding landed. The scan/delete/meter tail was re-derived when the
// batch and TTL steps left the script, by running the trimmed script
// against the store code that still had those features. A ShardCount-1
// store must reproduce it bit for bit: same event timings (down to the
// nanosecond), same versions, same errors, same metered units and cost.
const parityGolden = `put 0 v=1 err=<nil> now=4723108
put 1 v=1 err=<nil> now=10371959
put 2 v=1 err=<nil> now=15083934
put 3 v=1 err=<nil> now=20535597
put 4 v=1 err=<nil> now=25495768
put 5 v=1 err=<nil> now=30783328
put 6 v=1 err=<nil> now=35510853
put 7 v=1 err=<nil> now=42030412
cas-ok err=<nil> now=47260342
cas-fail cond=true now=52837336
get 0 v=2 notfound=false now=57729607
get 1 v=1 notfound=false now=62701586
get 2 v=1 notfound=false now=67592864
get 3 v=1 notfound=false now=73006772
get 4 v=2 notfound=false now=78340598
get 5 v=1 notfound=false now=82854692
get 6 v=1 notfound=false now=87962491
get 7 v=1 notfound=false now=92765058
get-settled 0 v=2 err=<nil> now=1097787165
get-settled 1 v=1 err=<nil> now=1103194256
get-settled 2 v=1 err=<nil> now=1107647485
get-settled 3 v=1 err=<nil> now=1112645367
scan n=8 now=1117233059
delete now=1122992852 len=7
meter reads=13 writes=11 nanousd=17000
`

// parityDigest runs the scripted workload against a fresh store with the
// given shard count and returns a textual trace of every observable:
// results, errors, virtual-time stamps, and meter totals.
func parityDigest(seed uint64, shardCount int) string {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(seed)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	catalog := pricing.Fall2018()
	meter := &pricing.Meter{}
	cfg := DefaultConfig()
	cfg.ShardCount = shardCount
	store := New("dynamodb", net, 9, rng.Fork(), cfg, catalog, meter)
	client := net.NewNode("client", 0, netsim.Gbps(10))

	var sb strings.Builder
	logf := func(format string, args ...any) {
		fmt.Fprintf(&sb, format+"\n", args...)
	}
	done := false
	k.Spawn("driver", func(p *sim.Proc) {
		// Unconditional and conditional writes.
		for i := 0; i < 8; i++ {
			it, err := store.Put(p, client, fmt.Sprintf("k/%d", i), []byte(strings.Repeat("v", 100*(i+1))))
			logf("put %d v=%d err=%v now=%d", i, it.Version, err, p.Now())
		}
		_, err := store.ConditionalPut(p, client, "k/0", []byte("cas"), 1)
		logf("cas-ok err=%v now=%d", err, p.Now())
		_, err = store.ConditionalPut(p, client, "k/0", []byte("cas"), 1)
		logf("cas-fail cond=%v now=%d", errors.Is(err, ErrConditionFailed), p.Now())
		// Consistent and eventual reads inside the replication window.
		for i := 0; i < 8; i++ {
			it, err := store.Get(p, client, fmt.Sprintf("k/%d", i%4), i%2 == 0)
			logf("get %d v=%d notfound=%v now=%d", i, it.Version, errors.Is(err, ErrNotFound), p.Now())
		}
		p.Sleep(time.Second) // clear the replication window
		for i := 0; i < 4; i++ {
			it, err := store.Get(p, client, fmt.Sprintf("k/%d", i), false)
			logf("get-settled %d v=%d err=%v now=%d", i, it.Version, err, p.Now())
		}
		// Scan, delete.
		items := store.Scan(p, client, "k/")
		logf("scan n=%d now=%d", len(items), p.Now())
		store.Delete(p, client, "k/3")
		logf("delete now=%d len=%d", p.Now(), store.Len())
		done = true
	})
	k.RunUntil(sim.Time(time.Hour))
	if !done {
		panic("parity workload did not finish")
	}
	logf("meter reads=%d writes=%d nanousd=%.0f",
		meter.Count("dynamodb.read"), meter.Count("dynamodb.write"), float64(meter.Total())*1e9)
	return sb.String()
}

// diffDigest points at the first differing line for a readable failure.
func diffDigest(t *testing.T, got, want string) {
	t.Helper()
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("digest diverges at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			return
		}
	}
	t.Errorf("digest lengths differ: got %d lines, want %d", len(gl), len(wl))
}

// TestShardCountOneIsBitIdenticalToPreRefactor is the refactor's contract:
// the service-layer extraction and the sharding machinery must not perturb
// the calibrated single-node behavior in any observable way.
func TestShardCountOneIsBitIdenticalToPreRefactor(t *testing.T) {
	if got := parityDigest(42, 1); got != parityGolden {
		diffDigest(t, got, parityGolden)
	}
}

// TestShardCountZeroMeansOne: the zero value of the new knob must behave
// exactly like the calibrated single shard.
func TestShardCountZeroMeansOne(t *testing.T) {
	if got := parityDigest(42, 0); got != parityGolden {
		diffDigest(t, got, parityGolden)
	}
}

// TestShardedDigestIsDeterministic: sharded runs are seed-stable too (they
// need not, and do not, match the single-shard trace).
func TestShardedDigestIsDeterministic(t *testing.T) {
	a, b := parityDigest(42, 4), parityDigest(42, 4)
	if a != b {
		diffDigest(t, a, b)
	}
	if a == parityGolden {
		t.Error("4-shard trace unexpectedly identical to single-shard golden")
	}
}
