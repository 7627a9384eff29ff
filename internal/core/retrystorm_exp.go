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
	// rsShards is the table's partition count.
	rsShards = 4
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

// rsResult is one policy's full measurement.
type rsResult struct {
	phases [3]tally
	hotQ   [3]int           // peak hot-shard admission-queue depth per phase
	poolQ  [3]int           // peak client-pool backlog per phase
	cstats resilience.Stats // client-side policy counters (shared sink)
	gaveUp int64            // arrivals that outwaited rsPatience
	shed   int64            // server-side admission sheds (all shards)
	trips  int64            // breaker trips (all shards)
	sched  sim.Sched        // the kernel's schedule record; never rendered
}

// rsKey holds the key for each popularity rank, rendered once rather than
// per request.
var rsKey = renderKeys("key/%04d", rsKeys)

// rsZipf is the shared popularity curve (CDF precomputed once; reads are
// concurrency-safe, so sweep workers share it).
var rsZipf = loadgen.NewZipf(rsKeys, rsZipfS)

// rsHotShard returns which of n shards owns the hottest key, and the
// fraction of traffic the popularity curve sends to it.
func rsHotShard(n int) (shard int, share float64) {
	shard = kvstore.ShardIndex(rsKey[0], n)
	for r, key := range rsKey {
		if kvstore.ShardIndex(key, n) == shard {
			share += rsZipf.Share(r+1) - rsZipf.Share(r)
		}
	}
	return shard, share
}

// rsStorm is one policy run's request machinery. Every arrival is a
// stepped process (loadgen.Generator.RunStep), and so is every attempt and
// hedge (resilience.Client.DoStep), so no request holds a coroutine: an
// arrival waiting for the pool keeps its start time in its Trip and its
// seq in queued, which grants pop in FIFO order; a call's state lives in
// its worker; and an attempt's read in flight lives in a 16-byte rsAttempt
// record, recycled through free.
type rsStorm struct {
	ddb     *kvstore.Store
	hosts   []*netsim.Node
	pool    *sim.Resource
	queued  sim.Ring[int32] // seqs of the arrivals waiting for the pool
	workers []*rsWorker     // the free workers, taken and returned LIFO
	res     *rsResult
	window  time.Duration
	grant   func(*sim.Proc) // granted, bound once

	// The attempt records, rsAttemptSlab to a slab and indexed across the
	// slabs in carving order: free heads the free ones, -1 when none is.
	slabs  [][]rsAttempt
	carved int32
	free   int32
}

// rsAttemptSlab is how many attempt records a slab holds: as many as fit,
// with the allocator's 8-byte header, in the 4,096-byte size class.
const rsAttemptSlab = (4096 - 8) / 16

// rsWorker is one client-pool worker: its resilience client, the call it
// serves, and its attempt and call-end steps, bound once at setup so that
// a request allocates no closure. The attempt step copies the call's key
// rank and host at attempt start (DoStep runs it only while the call is in
// progress), so an abandoned attempt that outlives its call keeps its own,
// even after the worker has been handed the next request.
type rsWorker struct {
	st    *rsStorm
	cl    *resilience.Client
	rank  uint16   // the call's key, as its popularity rank
	host  uint8    // the call's app host, as its index
	start sim.Time // when the call's request arrived
	op    func(*sim.Proc)
	then  func(*sim.Proc, error)
}

// rsAttempt is one attempt's read in flight, and its round trip's
// service.Caller, so that the read's end wakes into the record's own
// TripEnd. Peak storms hold thousands at once, abandoned attempts queued
// at the hot shard, so it is kept to two words: link is the record's own
// index while it is in use, and the next free record's while it is free.
type rsAttempt struct {
	w    *rsWorker
	link int32
	rank uint16
	host uint8
}

// Node is the app host the attempt's read comes from.
func (a *rsAttempt) Node() *netsim.Node { return a.w.st.hosts[a.host] }

// TripEnd ends the read: a miss counts as success, as every retrystorm
// read is one, and the outcome goes to the worker's client.
func (a *rsAttempt) TripEnd(p *sim.Proc) {
	st, cl := a.w.st, a.w.cl
	_, err := st.ddb.GetResult(p, rsKey[a.rank], false)
	if errors.Is(err, kvstore.ErrNotFound) {
		err = nil
	}
	i := a.link
	*a = rsAttempt{link: st.free}
	st.free = i
	cl.Done(p, err)
}

// attempt starts one attempt of w's call: it copies the call's key and
// host into a free record, or a fresh one, and reads the key.
func (st *rsStorm) attempt(p *sim.Proc, w *rsWorker) {
	i := st.free
	if i >= 0 {
		st.free = st.record(i).link
	} else {
		i = st.carved
		st.carved++
		if int(i)%rsAttemptSlab == 0 {
			st.slabs = append(st.slabs, make([]rsAttempt, rsAttemptSlab))
		}
	}
	a := st.record(i)
	*a = rsAttempt{w: w, link: i, rank: w.rank, host: w.host}
	st.ddb.GetStep(p, a, rsKey[a.rank])
}

// record returns the attempt record with index i.
func (st *rsStorm) record(i int32) *rsAttempt {
	return &st.slabs[int(i)/rsAttemptSlab][int(i)%rsAttemptSlab]
}

// arrive is a request's first step: it takes a worker slot now, or waits
// in the pool's FIFO backlog for granted.
func (st *rsStorm) arrive(p *sim.Proc, seq int) {
	if st.pool.AcquireStep(p, st.grant) {
		st.call(p, seq, p.Now())
		return
	}
	p.Trip.D = p.Now()
	st.queued.Push(int32(seq))
}

// granted runs when a backlogged request gets its slot: the caller may
// have hung up meanwhile, and then the slot goes back untouched.
func (st *rsStorm) granted(p *sim.Proc) {
	seq, start := int(st.queued.Pop()), p.Trip.D
	p.Trip = sim.Trip{}
	if wait := time.Duration(p.Now() - start); wait > rsPatience {
		st.pool.Release()
		st.res.gaveUp++
		st.phase(start).done(wait, false)
		p.Exit()
		return
	}
	st.call(p, seq, start)
}

// call hands the request to a free worker, whose client runs it.
func (st *rsStorm) call(p *sim.Proc, seq int, start sim.Time) {
	// Key choice is a pure function of the arrival sequence (no
	// simulation RNG draw): hash the sequence into a uniform, map it
	// through the Zipf CDF.
	u := float64(rfHash(17, seq)>>11) / float64(uint64(1)<<53)
	rank := rsZipf.RankOf(u)
	w := st.workers[len(st.workers)-1]
	st.workers = st.workers[:len(st.workers)-1]
	w.rank, w.host, w.start = uint16(rank), uint8(seq%len(st.hosts)), start
	w.cl.DoStep(p, st.ddb.ShardFor(rsKey[rank]), w.op, w.then)
}

// ended is w's call end: the worker and its slot go back, and the request
// is counted.
func (st *rsStorm) ended(p *sim.Proc, w *rsWorker, err error) {
	start := w.start
	st.workers = append(st.workers, w)
	st.pool.Release()
	st.phase(start).done(time.Duration(p.Now()-start), err == nil)
	p.Exit()
}

// phase returns the tally of the fault phase a request arrived in.
func (st *rsStorm) phase(start sim.Time) *tally {
	return &st.res.phases[faultPhase(start, st.window)]
}

// runRetryStorm measures one policy. scale shrinks the window (tests run
// at scale < 1); the fault always covers the middle third.
func runRetryStorm(seed uint64, pol rsPolicy, scale float64) rsResult {
	window := time.Duration(float64(rsWindow) * scale)
	faultAt, faultDur := window/3, window/3

	world := NewWorld(seed)
	defer world.Close()
	k, rng, net := world.K, world.RNG, world.Net

	dcfg := kvstore.DefaultConfig()
	dcfg.ShardCount = rsShards
	dcfg.ShardConcurrency = 4
	ddb := kvstore.New("dynamodb", net, ServiceRack, rng.Fork(), dcfg, world.Catalog, world.Meter)
	if pol.shed {
		ddb.SetAdmission(service.AdmissionConfig{MaxQueue: rsMaxQueue})
	}
	hotShard, _ := rsHotShard(rsShards)
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

	res := rsResult{phases: phaseTallies("rs-")}

	// The worker pool and its worker free list: at most rsWorkers calls in
	// flight; each holds one worker, and its resilience.Client, for the
	// call's duration.
	st := &rsStorm{ddb: ddb, pool: sim.NewResource(rsWorkers), res: &res,
		window: window, workers: make([]*rsWorker, rsWorkers), free: -1}
	st.grant = st.granted
	for i := range st.workers {
		c := resilience.NewClient(k, rng.Fork(), pol.cfg)
		c.SetBudget(budget)
		c.SetBreakers(brs)
		c.SetStatsSink(&sink)
		w := &rsWorker{st: st, cl: c}
		w.op = func(p *sim.Proc) { st.attempt(p, w) }
		w.then = func(p *sim.Proc, err error) { st.ended(p, w, err) }
		st.workers[i] = w
	}

	// App-tier hosts the arrivals originate from.
	st.hosts = make([]*netsim.Node, 8)
	for i := range st.hosts {
		st.hosts[i] = net.NewNode(fmt.Sprintf("app-%d", i), i%ServiceRack, netsim.Gbps(10))
	}

	eng := chaos.New(k, rng.Fork())
	eng.SlowFrontendAt(hotFE, rsSlowFactor, faultAt, faultDur)

	gen := loadgen.New(rng.Fork(), loadgen.Poisson{Rate: rsRate})
	gen.RunStep(k, window, st.arrive)

	// Sample the hot shard's admission queue and the client-pool backlog,
	// keeping each phase's peak.
	sampleEvery(k, 50*time.Millisecond, window, func(now sim.Time) {
		i := faultPhase(now, window)
		res.hotQ[i] = max(res.hotQ[i], hotFE.QueueDepth())
		res.poolQ[i] = max(res.poolQ[i], st.pool.Waiting())
	})

	// Drain: the pool backlog and every abandoned attempt resolve well
	// inside a second window.
	k.RunUntil(sim.Time(2 * window))

	res.sched = k.Sched()
	res.cstats = sink
	for i := 0; i < ddb.ShardCount(); i++ {
		fs := ddb.ShardFrontend(i).Stats()
		res.shed += fs.Shed
	}
	for _, b := range brs {
		res.trips += b.Trips()
	}
	return res
}

// rsJailResult is one jail setting's measurement; a tenant's failed
// requests are the ones the server rejected.
type rsJailResult struct {
	polite tally
	abuser tally
	jailed int64 // server-side jail rejections
}

const (
	rsJailWindow  = 10 * time.Second
	rsPoliteN     = 12
	rsAbuserConns = 32
)

// rsConn is one closed-loop tenant connection: it thinks for an
// exponential time of mean think, reads one of the 512 hottest keys
// eventually consistently, reports the read to done, and thinks again,
// until a think ends at or past until. A read the table serves, a miss
// included, counts as served; one it sheds or jails as failed.
//
// The connection runs as a stepped process, one record and one step, so
// it holds no coroutine: each draw and each schedule call happens at the
// event where the blocking loop
//
//	for { Sleep(think); if now >= until { return }; Get; done }
//
// made it, and in the same order, so the event order is that loop's.
type rsConn struct {
	ddb   *kvstore.Store
	rng   *simrand.RNG
	think time.Duration
	until sim.Time
	done  func(latency time.Duration, served bool)
	node  *netsim.Node    // the connection's caller identity
	step  func(*sim.Proc) // wake, bound once

	thinking bool     // the pending wake-up ends a think
	key      string   // the key last read; "" before the first read
	issued   sim.Time // when the read in progress was issued
}

// start spawns the connection; its first think starts at once.
func (c *rsConn) start(k *sim.Kernel, name string) {
	c.step = c.wake
	k.SpawnStep(name, c.step)
}

// Node and TripEnd make the connection the service.Caller of its reads,
// which wake into its one step.
func (c *rsConn) Node() *netsim.Node  { return c.node }
func (c *rsConn) TripEnd(p *sim.Proc) { c.wake(p) }

// wake is the connection's one step. At the end of a think it exits or
// issues a read; at its start and at the end of a read it records the
// read, if any, and starts the next think.
func (c *rsConn) wake(p *sim.Proc) {
	if c.thinking {
		c.thinking = false
		if p.Now() >= c.until {
			p.Exit()
			return
		}
		c.key = rsKey[int(c.rng.Float64()*512)]
		c.issued = p.Now()
		c.ddb.GetStep(p, c, c.key)
		return
	}
	if c.key != "" {
		_, err := c.ddb.GetResult(p, c.key, false)
		served := err == nil || errors.Is(err, kvstore.ErrNotFound)
		if !served && !service.Overloaded(err) {
			panic(err)
		}
		c.done(time.Duration(p.Now()-c.issued), served)
	}
	c.thinking = true
	p.WakeAfter(time.Duration(c.rng.ExpFloat64()*float64(c.think)), c.step)
}

// runHotTenant measures 12 polite closed-loop tenants sharing a
// 4-slot table with one abusive tenant hammering from 32 connections,
// with the per-caller rate-window jail off or on.
func runHotTenant(seed uint64, jail bool, scale float64) rsJailResult {
	window := time.Duration(float64(rsJailWindow) * scale)

	world := NewWorld(seed)
	defer world.Close()
	k, rng, net := world.K, world.RNG, world.Net

	dcfg := kvstore.DefaultConfig()
	dcfg.ShardCount = 1
	dcfg.ShardConcurrency = 4
	ddb := kvstore.New("dynamodb", net, ServiceRack, rng.Fork(), dcfg, world.Catalog, world.Meter)
	if jail {
		ddb.SetAdmission(service.AdmissionConfig{
			JailWindow: 100 * time.Millisecond, JailLimit: 30,
		})
	}

	res := rsJailResult{
		polite: tally{rec: stats.NewRecorder("jail-polite")},
		abuser: tally{rec: stats.NewRecorder("jail-abuser")},
	}

	// Each tally's method value is bound once, not per connection.
	politeDone, abuserDone := res.polite.done, res.abuser.done
	for i := 0; i < rsPoliteN; i++ {
		node := net.NewNode(fmt.Sprintf("tenant-%02d", i), i%ServiceRack, netsim.Gbps(10))
		c := &rsConn{ddb: ddb, rng: rng.Fork(), think: 40 * time.Millisecond,
			until: sim.Time(window), done: politeDone, node: node}
		c.start(k, fmt.Sprintf("polite-%02d", i))
	}
	// The abuser: one caller identity (one node — the jail keys on it),
	// many concurrent connections.
	abuser := net.NewNode("tenant-abuser", 0, netsim.Gbps(10))
	for i := 0; i < rsAbuserConns; i++ {
		c := &rsConn{ddb: ddb, rng: rng.Fork(), think: 5 * time.Millisecond,
			until: sim.Time(window), done: abuserDone, node: abuser}
		c.start(k, fmt.Sprintf("abuser-%02d", i))
	}

	k.RunUntil(sim.Time(2 * window))
	res.jailed = ddb.ShardFrontend(0).Stats().Jailed
	return res
}

// runRetryStormTables builds both tables at the given scale (1 for the
// real experiment; tests shrink it).
func runRetryStormTables(seed uint64, scale float64) []*Table {
	window := time.Duration(float64(rsWindow) * scale)
	phaseDur := window / 3

	hotShard, hotShare := rsHotShard(rsShards)

	t := &Table{
		Title: fmt.Sprintf("Retry storm: %.0f req/s through a %d-worker client pool, hot shard %dx slower for the middle third",
			rsRate, rsWorkers, int(rsSlowFactor)),
		Header: []string{"Policy", "Phase", "Done req/s", "p50", "p99",
			"Avail", "HotQ", "PoolQ"},
	}
	pols := rsPolicies()
	results := sweep.Map(pols, func(_ int, pol rsPolicy) rsResult {
		return runRetryStorm(seed, pol, scale)
	})
	for pi, pol := range pols {
		r := results[pi]
		for i := range r.phases {
			ph := &r.phases[i]
			t.AddRow(
				pol.name,
				faultPhases[i],
				fmt.Sprintf("%.0f", float64(ph.served)/phaseDur.Seconds()),
				FmtDur(ph.rec.Percentile(50)),
				FmtDur(ph.rec.Percentile(99)),
				fmt.Sprintf("%.2f%%", ph.availPct()),
				fmt.Sprintf("%d", r.hotQ[i]),
				fmt.Sprintf("%d", r.poolQ[i]),
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
		return runHotTenant(seed, jail, scale)
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
			m      *tally
		}{{"polite", &r.polite}, {"abuser", &r.abuser}} {
			jt.AddRow(
				label,
				row.tenant,
				fmt.Sprintf("%.0f", float64(row.m.served)/jailWindow.Seconds()),
				FmtDur(row.m.rec.Percentile(50)),
				FmtDur(row.m.rec.Percentile(99)),
				fmt.Sprintf("%d", row.m.failed),
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
func RunRetryStorm(seed uint64) []*Table {
	return runRetryStormTables(seed, 1)
}
