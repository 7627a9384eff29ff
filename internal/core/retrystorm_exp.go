package core

// The retrystorm scenario: the resilience fabric (internal/resilience)
// measured under the failure mode it exists to prevent — a metastable
// retry storm. Open-loop Poisson traffic flows through a bounded pool of
// client workers (a service's RPC thread pool) into a 4-shard DynamoDB
// table; a Zipf-skewed key popularity concentrates ~1/3 of traffic on the
// shard owning the hottest key, and the chaos engine slows that shard 20×
// for the middle third of the window.
//
// Four client policies face the same fault:
//
//   - no-retry: one attempt under a 250ms deadline. Hot-shard calls time
//     out during the fault; cold traffic is untouched. The abandoned
//     attempts still queue and run at the shard (billed wasted work), so
//     a backlog builds that takes seconds to drain after the heal.
//   - naive-retry: 4 immediate attempts, no backoff, no budget. Every
//     timeout spawns more abandoned work, the hot calls occupy pool
//     workers 4× longer, the pool exhausts, and *cold* requests — two
//     thirds of all traffic — start failing too. The overload outlives
//     the fault: the backlog keeps every retry timing out after the
//     shard heals. That is the metastable state.
//   - full-policy: backoff+jitter, a shared retry budget, per-shard
//     circuit breakers, and server-side admission control (a bounded
//     queue that sheds on arrival). Failures are fast and cheap, the
//     pool stays healthy, the shard queue stays shallow, and recovery
//     after the heal is immediate.
//   - full+hedge: the full policy plus tail-latency hedging (speculative
//     second attempts after a p99-class delay).
//
// Latency percentiles are over every call, success or failure — fail-fast
// is the point, and a 250ms timeout is the latency the caller saw.
//
// A second table isolates the admission jail: one abusive tenant hammering
// from 32 connections alongside 12 polite tenants, with the per-caller
// rate-window jail off and on.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/kvstore"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/resilience"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/stats"
	"repro/internal/sweep"
)

const (
	// rsWindow is the full-scale measurement window; the hot shard is
	// slowed for its middle third.
	rsWindow = 30 * time.Second
	// rsRate is the open-loop arrival rate.
	rsRate = 450.0
	// rsKeys / rsZipfS shape key popularity: Zipf(s=1.1) over 4096 keys.
	rsKeys  = 4096
	rsZipfS = 1.1
	// rsSlowFactor is the chaos slowdown applied to the hot shard.
	rsSlowFactor = 20.0
	// rsWorkers is the client worker pool (the RPC thread pool whose
	// exhaustion turns a hot-shard fault into a full outage).
	rsWorkers = 64
	// rsPatience is how long an arrival waits for a free worker before the
	// caller gives up.
	rsPatience = 100 * time.Millisecond
	// rsDeadline / rsAttempts / rsBackoff parameterize the retrying
	// policies.
	rsDeadline   = 250 * time.Millisecond
	rsAttempts   = 4
	rsBackoff    = 20 * time.Millisecond
	rsMaxBackoff = 500 * time.Millisecond
	// rsHedgeAfter is the full+hedge policy's speculative-attempt delay
	// (a p99-class healthy latency).
	rsHedgeAfter = 25 * time.Millisecond
	// rsMaxQueue bounds each shard's admission queue for the shedding
	// policies: 6 waiters × ~21ms degraded per-slot drain + one 83ms
	// degraded service time still beats the 250ms deadline, so every
	// admitted request can finish — bounded queues preserve goodput.
	rsMaxQueue = 6
)

// rsPhases labels the measurement phases around the fault.
var rsPhases = [3]string{"pre", "during", "post"}

// rsPolicy is one client-policy sweep point.
type rsPolicy struct {
	name    string
	cfg     resilience.Config
	budget  bool // shared retry budget
	breaker bool // per-shard circuit breakers
	shed    bool // server-side bounded-queue admission control
}

// rsPolicies returns the sweep points.
func rsPolicies() []rsPolicy {
	return []rsPolicy{
		{name: "no-retry",
			cfg: resilience.Config{Attempts: 1, Deadline: rsDeadline}},
		{name: "naive-retry",
			cfg: resilience.Config{Attempts: rsAttempts, Deadline: rsDeadline}},
		{name: "full-policy",
			cfg: resilience.Config{Attempts: rsAttempts, Deadline: rsDeadline,
				BaseBackoff: rsBackoff, MaxBackoff: rsMaxBackoff},
			budget: true, breaker: true, shed: true},
		{name: "full+hedge",
			cfg: resilience.Config{Attempts: rsAttempts, Deadline: rsDeadline,
				BaseBackoff: rsBackoff, MaxBackoff: rsMaxBackoff,
				HedgeAfter: rsHedgeAfter},
			budget: true, breaker: true, shed: true},
	}
}

// rsPhaseM is one phase's measurements.
type rsPhaseM struct {
	rec    stats.Summary
	served int
	failed int
	hotQ   int // peak hot-shard admission-queue depth observed
	poolQ  int // peak client-pool backlog observed
}

// rsResult is one policy's full measurement.
type rsResult struct {
	phases  [3]rsPhaseM
	cstats  resilience.Stats // client-side policy counters (shared sink)
	gaveUp  int64            // arrivals that outwaited rsPatience
	shed    int64            // server-side admission sheds (all shards)
	trips   int64            // breaker trips (all shards)
	hotCost pricing.USD      // total metered cost of the run
}

// rsKey renders the key for popularity rank r.
func rsKey(r int) string { return fmt.Sprintf("key/%04d", r) }

// rsZipf is the shared popularity curve (CDF precomputed once; reads are
// concurrency-safe, so sweep workers share it).
var rsZipf = loadgen.NewZipf(rsKeys, rsZipfS)

// rsHotShard returns the shard owning the hottest key, and the fraction of
// traffic the popularity curve sends to it.
func rsHotShard(ddb *kvstore.Store) (shard int, share float64) {
	shard = ddb.ShardFor(rsKey(0))
	for r := 0; r < rsKeys; r++ {
		if ddb.ShardFor(rsKey(r)) == shard {
			share += rsZipf.Share(r+1) - rsZipf.Share(r)
		}
	}
	return shard, share
}

// runRetryStorm measures one policy. scale shrinks the window (tests run
// at scale < 1); the fault always covers the middle third.
func runRetryStorm(seed uint64, pol rsPolicy, scale float64, o Options) rsResult {
	window := time.Duration(float64(rsWindow) * scale)
	faultAt, faultDur := window/3, window/3

	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(seed)
	cfg := DefaultConfig()
	net := netsim.NewNetwork(k, rng.Fork(), cfg.Latency)
	catalog := pricing.Fall2018()
	meter := &pricing.Meter{}

	dcfg := cfg.DDB
	dcfg.ShardCount = 4
	dcfg.ShardConcurrency = 4
	ddb := kvstore.New("dynamodb", net, ServiceRack, rng.Fork(), dcfg, catalog, meter)
	if pol.shed {
		ddb.SetAdmission(service.AdmissionConfig{MaxQueue: rsMaxQueue})
	}
	hotShard, _ := rsHotShard(ddb)
	hotFE := ddb.ShardFrontend(hotShard)

	// The shared policy state a real client fleet would hold process-wide:
	// one retry budget, one breaker per shard, one stats sink.
	var sink resilience.Stats
	var budget *resilience.Budget
	if pol.budget {
		budget = resilience.NewBudget(0.2, 20)
	}
	var brs []*resilience.Breaker
	if pol.breaker {
		brs = make([]*resilience.Breaker, ddb.ShardCount())
		for i := range brs {
			brs[i] = resilience.NewBreaker(resilience.BreakerConfig{
				Window: 32, MinSamples: 16, FailureRate: 0.5,
				Cooldown: 250 * time.Millisecond, HalfOpenProbes: 2,
			})
		}
	}

	// The worker pool and its client free list: at most rsWorkers calls in
	// flight; each holds one resilience.Client for the call's duration.
	pool := sim.NewResource(rsWorkers)
	clients := make([]*resilience.Client, rsWorkers)
	for i := range clients {
		c := resilience.NewClient(k, rng.Fork(), pol.cfg)
		c.SetBudget(budget)
		c.SetBreakers(brs)
		c.SetStatsSink(&sink)
		clients[i] = c
	}

	// App-tier hosts the arrivals originate from.
	hosts := make([]*netsim.Node, 8)
	for i := range hosts {
		hosts[i] = net.NewNode(fmt.Sprintf("app-%d", i), i%ServiceRack, netsim.Gbps(10))
	}

	var res rsResult
	for i := range res.phases {
		res.phases[i].rec = o.newSummary("rs-" + rsPhases[i])
	}
	phaseOf := func(now sim.Time) int {
		switch {
		case now < sim.Time(faultAt):
			return 0
		case now < sim.Time(faultAt+faultDur):
			return 1
		default:
			return 2
		}
	}

	eng := chaos.New(k, rng.Fork())
	eng.SlowFrontendAt(hotFE, rsSlowFactor, faultAt, faultDur)

	gen := loadgen.New(rng.Fork(), loadgen.Poisson{Rate: rsRate})
	gen.Run(k, window, func(p *sim.Proc, seq int) {
		// Key choice is a pure function of the arrival sequence (no
		// simulation RNG draw): hash the sequence into a uniform, map it
		// through the Zipf CDF.
		u := float64(rfHash(17, seq)>>11) / float64(uint64(1)<<53)
		key := rsKey(rsZipf.RankOf(u))
		ep := ddb.ShardFor(key)
		host := hosts[seq%len(hosts)]
		start := p.Now()
		ph := &res.phases[phaseOf(start)]
		pool.Acquire(p)
		if time.Duration(p.Now()-start) > rsPatience {
			// The caller hung up while this arrival sat in the pool
			// backlog; release the worker untouched.
			pool.Release()
			res.gaveUp++
			ph.failed++
			ph.rec.Add(time.Duration(p.Now() - start))
			return
		}
		cl := clients[len(clients)-1]
		clients = clients[:len(clients)-1]
		err := cl.Do(p, ep, func(cp *sim.Proc) error {
			if _, gerr := ddb.Get(cp, host, key, false); gerr != nil &&
				!errors.Is(gerr, kvstore.ErrNotFound) {
				return gerr
			}
			return nil
		})
		clients = append(clients, cl)
		pool.Release()
		ph.rec.Add(time.Duration(p.Now() - start))
		if err == nil {
			ph.served++
		} else {
			ph.failed++
		}
	})

	// Queue observer: sample the hot shard's admission queue and the
	// client-pool backlog, keeping each phase's peak.
	k.Spawn("rs-queue-observer", func(p *sim.Proc) {
		for time.Duration(p.Now()) < window {
			p.Sleep(50 * time.Millisecond)
			ph := &res.phases[phaseOf(p.Now())]
			if q := hotFE.QueueDepth(); q > ph.hotQ {
				ph.hotQ = q
			}
			if q := pool.Waiting(); q > ph.poolQ {
				ph.poolQ = q
			}
		}
	})

	// Drain: the pool backlog and every abandoned attempt resolve well
	// inside a second window.
	k.RunUntil(sim.Time(2 * window))

	res.cstats = sink
	for i := 0; i < ddb.ShardCount(); i++ {
		fs := ddb.ShardFrontend(i).Stats()
		res.shed += fs.Shed
	}
	for _, b := range brs {
		res.trips += b.Trips()
	}
	res.hotCost = meter.Total()
	return res
}

// rsTenant is one tenant class's measurement in the hot-tenant table.
type rsTenant struct {
	rec      stats.Summary
	served   int
	rejected int
}

// rsJailResult is one jail setting's measurement.
type rsJailResult struct {
	polite rsTenant
	abuser rsTenant
	jailed int64 // server-side jail rejections
}

const (
	rsJailWindow  = 10 * time.Second
	rsPoliteN     = 12
	rsAbuserConns = 32
)

// runHotTenant measures 12 polite closed-loop tenants sharing a
// 4-slot table with one abusive tenant hammering from 32 connections,
// with the per-caller rate-window jail off or on.
func runHotTenant(seed uint64, jail bool, scale float64, o Options) rsJailResult {
	window := time.Duration(float64(rsJailWindow) * scale)

	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(seed)
	cfg := DefaultConfig()
	net := netsim.NewNetwork(k, rng.Fork(), cfg.Latency)
	catalog := pricing.Fall2018()
	meter := &pricing.Meter{}

	dcfg := cfg.DDB
	dcfg.ShardCount = 1
	dcfg.ShardConcurrency = 4
	ddb := kvstore.New("dynamodb", net, ServiceRack, rng.Fork(), dcfg, catalog, meter)
	if jail {
		ddb.SetAdmission(service.AdmissionConfig{
			JailWindow: 100 * time.Millisecond, JailLimit: 30,
		})
	}

	var res rsJailResult
	res.polite.rec = o.newSummary("jail-polite")
	res.abuser.rec = o.newSummary("jail-abuser")

	run := func(name string, node *netsim.Node, crng *simrand.RNG,
		think time.Duration, out *rsTenant) {
		k.Spawn(name, func(p *sim.Proc) {
			for {
				p.Sleep(time.Duration(crng.ExpFloat64() * float64(think)))
				if time.Duration(p.Now()) >= window {
					return
				}
				key := rsKey(int(crng.Float64() * 512))
				start := p.Now()
				_, err := ddb.Get(p, node, key, false)
				out.rec.Add(time.Duration(p.Now() - start))
				switch {
				case err == nil || errors.Is(err, kvstore.ErrNotFound):
					out.served++
				case service.Overloaded(err):
					out.rejected++
				default:
					panic(err)
				}
			}
		})
	}
	for i := 0; i < rsPoliteN; i++ {
		node := net.NewNode(fmt.Sprintf("tenant-%02d", i), i%ServiceRack, netsim.Gbps(10))
		run(fmt.Sprintf("polite-%02d", i), node, rng.Fork(),
			40*time.Millisecond, &res.polite)
	}
	// The abuser: one caller identity (one node — the jail keys on it),
	// many concurrent connections.
	abuser := net.NewNode("tenant-abuser", 0, netsim.Gbps(10))
	for c := 0; c < rsAbuserConns; c++ {
		run(fmt.Sprintf("abuser-%02d", c), abuser, rng.Fork(),
			5*time.Millisecond, &res.abuser)
	}

	k.RunUntil(sim.Time(2 * window))
	res.jailed = ddb.ShardFrontend(0).Stats().Jailed
	return res
}

// runRetryStormTables builds both tables at the given scale (1 for the
// real experiment; tests shrink it).
func runRetryStormTables(seed uint64, scale float64, o Options) []*Table {
	window := time.Duration(float64(rsWindow) * scale)
	phaseDur := window / 3

	// Hot-shard identity and traffic share are pure functions of the key
	// space; compute them once without a simulation.
	probe := sim.NewKernel()
	pnet := netsim.NewNetwork(probe, simrand.New(1), DefaultConfig().Latency)
	pcfg := DefaultConfig().DDB
	pcfg.ShardCount = 4
	pddb := kvstore.New("probe", pnet, ServiceRack, simrand.New(1), pcfg,
		pricing.Fall2018(), &pricing.Meter{})
	hotShard, hotShare := rsHotShard(pddb)
	probe.Close()

	t := &Table{
		Title: fmt.Sprintf("Retry storm: %.0f req/s through a %d-worker client pool, hot shard %dx slower for the middle third",
			rsRate, rsWorkers, int(rsSlowFactor)),
		Header: []string{"Policy", "Phase", "Done req/s", "p50", "p99",
			"Avail", "HotQ", "PoolQ"},
	}
	pols := rsPolicies()
	results := sweep.Map(pols, func(_ int, pol rsPolicy) rsResult {
		return runRetryStorm(seed, pol, scale, o)
	})
	for pi, pol := range pols {
		r := results[pi]
		for i := range r.phases {
			ph := &r.phases[i]
			total := ph.served + ph.failed
			avail := 100.0
			if total > 0 {
				avail = 100 * float64(ph.served) / float64(total)
			}
			t.AddRow(
				pol.name,
				rsPhases[i],
				fmt.Sprintf("%.0f", float64(ph.served)/phaseDur.Seconds()),
				FmtDur(ph.rec.Percentile(50)),
				FmtDur(ph.rec.Percentile(99)),
				fmt.Sprintf("%.2f%%", avail),
				fmt.Sprintf("%d", ph.hotQ),
				fmt.Sprintf("%d", ph.poolQ),
			)
		}
		c := r.cstats
		t.AddNote("%s: %d calls, %d retries, %d timeouts, %d hedges, %d breaker fast-fails (%d trips), %d shed, %d budget-denied, %d gave up in pool",
			pol.name, c.Calls, c.Retries, c.Timeouts, c.Hedges,
			c.ShortCircuits, r.trips, r.shed, c.BudgetDenied, r.gaveUp)
	}
	t.AddNote("Zipf(s=%.1f) keys over %d ranks put %.0f%% of traffic on shard %d (4 slots, ~4.15ms/op);",
		rsZipfS, rsKeys, 100*hotShare, hotShard)
	t.AddNote("latency percentiles are over every call, success or failure — a timeout is latency the caller saw;")
	t.AddNote("HotQ/PoolQ = peak hot-shard admission queue / client-pool backlog per phase (sampled at 50ms);")
	t.AddNote("deadline %s, patience %s; full policy: backoff %s..%s, budget 0.2/call (burst 20),",
		FmtDur(rsDeadline), FmtDur(rsPatience), FmtDur(rsBackoff), FmtDur(rsMaxBackoff))
	t.AddNote("breaker window 32 @ 50%% (250ms cooldown), server queue bound %d; hedge after %s",
		rsMaxQueue, FmtDur(rsHedgeAfter))

	jt := &Table{
		Title: fmt.Sprintf("Hot tenant: %d polite tenants vs 1 abuser on %d connections, rate-window jail off/on",
			rsPoliteN, rsAbuserConns),
		Header: []string{"Jail", "Tenant", "Done req/s", "p50", "p99", "Rejected"},
	}
	jres := sweep.Map([]bool{false, true}, func(_ int, jail bool) rsJailResult {
		return runHotTenant(seed, jail, scale, o)
	})
	jailWindow := time.Duration(float64(rsJailWindow) * scale)
	for ji, jail := range []bool{false, true} {
		label := "off"
		if jail {
			label = "on"
		}
		r := jres[ji]
		for _, row := range []struct {
			tenant string
			m      *rsTenant
		}{{"polite", &r.polite}, {"abuser", &r.abuser}} {
			jt.AddRow(
				label,
				row.tenant,
				fmt.Sprintf("%.0f", float64(row.m.served)/jailWindow.Seconds()),
				FmtDur(row.m.rec.Percentile(50)),
				FmtDur(row.m.rec.Percentile(99)),
				fmt.Sprintf("%d", row.m.rejected),
			)
		}
	}
	jt.AddNote("jail: >30 requests per caller per 100ms window earns a 100ms ban (rejections are fast and cheap);")
	jt.AddNote("polite tenants think ~40ms; the abuser's 32 connections think ~5ms each, all from one caller identity")
	return []*Table{t, jt}
}

// RunRetryStorm regenerates the resilience-fabric tables: availability and
// tail latency per phase around a hot-shard slowdown under four retry
// policies, and the hot-tenant admission-jail comparison.
func RunRetryStorm(seed uint64, o Options) []*Table {
	return runRetryStormTables(seed, 1, o)
}
