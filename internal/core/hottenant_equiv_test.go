package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// refConn runs c as the hot tenant's connections ran before they were
// stepped: blocking process code, one park per think and per read. It is
// the reference the stepped rsConn must match event for event.
func refConn(k *sim.Kernel, name string, c *rsConn) {
	k.Spawn(name, func(p *sim.Proc) {
		for {
			p.Sleep(time.Duration(c.rng.ExpFloat64() * float64(c.think)))
			if p.Now() >= c.until {
				return
			}
			key := rsKey[int(c.rng.Float64()*512)]
			start := p.Now()
			_, err := c.ddb.Get(p, c.node, key, false)
			served := err == nil || errors.Is(err, kvstore.ErrNotFound)
			if !served && !service.Overloaded(err) {
				panic(err)
			}
			c.done(time.Duration(p.Now()-start), served)
		}
	})
}

// tenantEquivCase is one table shape the two implementations face.
type tenantEquivCase struct {
	name   string
	shards int
	slots  int
	adm    service.AdmissionConfig
}

// tenantRead is one finished read as its connection reported it.
type tenantRead struct {
	conn    int
	at      sim.Time
	latency time.Duration
	served  bool
}

// tenantEquivResult is everything the two implementations must agree on.
type tenantEquivResult struct {
	sched     sim.Sched
	reads     []tenantRead
	stats     []service.Stats
	feDraws   []uint64
	netDraw   uint64
	connDraws []uint64
	cost      pricing.USD
	// failed counts the reads the table rejected, and rejected the
	// writer's rejected puts.
	failed, rejected int
}

// runTenantEquiv runs polite and abusive closed-loop connections against a
// table of the given shape, every connection started by start, while a
// writer keeps rewriting some of the keys they read, so reads hit, miss
// and fall inside the replication lag.
func runTenantEquiv(seed uint64, tc tenantEquivCase, start func(*sim.Kernel, string, *rsConn)) tenantEquivResult {
	const window = 400 * time.Millisecond
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(seed)
	netRNG := rng.Fork()
	net := netsim.NewNetwork(k, netRNG, netsim.DefaultLatency())
	meter := &pricing.Meter{}
	dcfg := kvstore.DefaultConfig()
	dcfg.ShardCount = tc.shards
	dcfg.ShardConcurrency = tc.slots
	dcfg.ReplicationLag = 20 * time.Millisecond
	ddb := kvstore.New("dynamodb", net, ServiceRack, rng.Fork(), dcfg, pricing.Fall2018(), meter)
	ddb.SetAdmission(tc.adm)

	var res tenantEquivResult
	var conns []*rsConn
	add := func(name string, node *netsim.Node, think time.Duration) {
		i := len(conns)
		c := &rsConn{ddb: ddb, rng: rng.Fork(), think: think, until: window,
			done: func(latency time.Duration, served bool) {
				res.reads = append(res.reads, tenantRead{i, k.Now(), latency, served})
			}, node: node}
		conns = append(conns, c)
		start(k, name, c)
	}
	for i := 0; i < 3; i++ {
		node := net.NewNode(fmt.Sprintf("tenant-%d", i), i%ServiceRack, netsim.Gbps(10))
		add(fmt.Sprintf("polite-%d", i), node, 20*time.Millisecond)
	}
	abuser := net.NewNode("tenant-abuser", 0, netsim.Gbps(10))
	for i := 0; i < 8; i++ {
		add(fmt.Sprintf("abuser-%d", i), abuser, 2*time.Millisecond)
	}
	writer := net.NewNode("writer", 1, netsim.Gbps(10))
	wrng := rng.Fork()
	k.Spawn("writer", func(p *sim.Proc) {
		for p.Now() < window {
			key := rsKey[wrng.Intn(64)]
			if _, err := ddb.Put(p, writer, key, []byte(key)); service.Overloaded(err) {
				res.rejected++
			} else if err != nil {
				panic(err)
			}
			p.Sleep(time.Duration(wrng.Intn(5000)) * time.Microsecond)
		}
	})

	k.RunUntil(2 * window)
	res.sched = k.Sched()
	res.netDraw = netRNG.Uint64()
	for i := 0; i < ddb.ShardCount(); i++ {
		fe := ddb.ShardFrontend(i)
		res.stats = append(res.stats, fe.Stats())
		res.feDraws = append(res.feDraws, fe.RNG().Uint64())
	}
	for _, c := range conns {
		res.connDraws = append(res.connDraws, c.rng.Uint64())
	}
	res.cost = meter.Total()
	for _, r := range res.reads {
		if !r.served {
			res.failed++
		}
	}
	return res
}

// The stepped hot-tenant connection is the blocking loop, event for event:
// with the table open, jailing, shedding, and both over two shards, both
// consume the same (at, seq) schedule, report every read at the same time
// with the same latency and outcome, end with the same frontend Stats and
// bill, and leave every RNG at the same next draw; the stepped one resumes
// no coroutine.
func TestSteppedTenantMatchesBlockingLoop(t *testing.T) {
	stepped := func(k *sim.Kernel, name string, c *rsConn) { c.start(k, name) }
	for _, tc := range []tenantEquivCase{
		{name: "open", shards: 1, slots: 4},
		{name: "jail", shards: 1, slots: 4,
			adm: service.AdmissionConfig{JailWindow: 10 * time.Millisecond, JailLimit: 8}},
		{name: "shed", shards: 1, slots: 1, adm: service.AdmissionConfig{MaxQueue: 2}},
		{name: "jail+shed", shards: 2, slots: 2,
			adm: service.AdmissionConfig{MaxQueue: 3, JailWindow: 10 * time.Millisecond, JailLimit: 6}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var shed, jailed int64
			failed, rejected := 0, 0
			for seed := uint64(1); seed <= 3; seed++ {
				ref := runTenantEquiv(seed, tc, refConn)
				got := runTenantEquiv(seed, tc, stepped)
				if got.sched.Hash != ref.sched.Hash ||
					got.sched.Dispatched+got.sched.Handoffs != ref.sched.Dispatched+ref.sched.Handoffs {
					t.Errorf("seed %d: schedule %+v, reference %+v", seed, got.sched, ref.sched)
				}
				if len(got.reads) != len(ref.reads) {
					t.Fatalf("seed %d: %d reads, reference %d", seed, len(got.reads), len(ref.reads))
				}
				for i := range ref.reads {
					if got.reads[i] != ref.reads[i] {
						t.Fatalf("seed %d: read %d is %+v, reference %+v", seed, i, got.reads[i], ref.reads[i])
					}
				}
				if fmt.Sprint(got.stats, got.feDraws, got.cost) != fmt.Sprint(ref.stats, ref.feDraws, ref.cost) {
					t.Errorf("seed %d: frontends %+v draws %x cost %v, reference %+v %x %v",
						seed, got.stats, got.feDraws, got.cost, ref.stats, ref.feDraws, ref.cost)
				}
				if got.netDraw != ref.netDraw || fmt.Sprint(got.connDraws) != fmt.Sprint(ref.connDraws) {
					t.Errorf("seed %d: next draws network %x connections %x, reference %x %x",
						seed, got.netDraw, got.connDraws, ref.netDraw, ref.connDraws)
				}
				// Only the writer has a body to resume.
				if got.sched.Resumes >= ref.sched.Resumes/4 {
					t.Errorf("seed %d: %d resumes, the reference %d", seed, got.sched.Resumes, ref.sched.Resumes)
				}
				for _, st := range ref.stats {
					shed += st.Shed
					jailed += st.Jailed
				}
				failed += ref.failed
				rejected += ref.rejected
			}
			if (tc.adm.MaxQueue > 0) != (shed > 0) || (tc.adm.JailLimit > 0) != (jailed > 0) ||
				failed == 0 && shed+jailed > 0 || int64(failed+rejected) != shed+jailed {
				t.Errorf("the mix rejected %d reads and %d writes, %d shed and %d jailed, for admission %+v",
					failed, rejected, shed, jailed, tc.adm)
			}
		})
	}
}
