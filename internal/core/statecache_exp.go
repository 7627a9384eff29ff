package core

// The statecache scenario: the paper's §4 "fluid, function-colocated
// state" proposal made measurable. §3.1's serving numbers show what data
// shipping costs — every stateful operation from a function is a
// DynamoDB-class round trip (Table 1: ~11 ms for a 1KB pair). The
// statecache cluster instead colocates a CRDT replica with each hosting
// VM: reads serve from local memory, writes absorb as lattice deltas, a
// gossip anti-entropy process converges replicas, and a write-behind flush
// keeps the shared store durable.
//
// Long-running worker invocations (one container per VM, so each worker
// owns a replica) run an identical key-value workload in both variants:
//
//   - uncached: every read is a kvstore Get; every write is the
//     blackboard-pattern read-merge-write (fetch lattice, join, write
//     back conditionally) — the paper's §3.1 shape.
//   - cached: the same ops against Ctx.Cache(), with gossip interval and
//     replica count swept.
//
// The table reports per-op read latency (p50/p99), throughput, the
// measured staleness window (time from an originating write to its gossip
// visibility on another replica), and the state-tier cost — DynamoDB
// request units vs cache GB-seconds plus flush writes — extrapolated to
// an hour.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/crdt"
	"repro/internal/faas"
	"repro/internal/kvstore"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/statecache"
	"repro/internal/stats"
	"repro/internal/sweep"
)

const (
	// stateCacheWindow is the measurement window of virtual time.
	stateCacheWindow = 10 * time.Second
	// stateCacheKeys is the shared hot key set the workers contend on.
	stateCacheKeys = 64
	// stateCacheThink is the mean think time between a worker's ops.
	stateCacheThink = 2 * time.Millisecond
	// stateCacheMemoryMB sizes the worker function.
	stateCacheMemoryMB = 512
	// stateCacheFlushEvery is the cached variant's write-behind interval.
	stateCacheFlushEvery = time.Second
)

// stateCacheResult is one variant's measurement.
type stateCacheResult struct {
	label      string
	workers    int
	interval   time.Duration // 0 = uncached
	ops        int
	throughput float64
	p50, p99   time.Duration // read-op completion latency
	staleP99   time.Duration // gossip staleness window (cached only)
	gossipPer  int64         // gossip bytes per completed round (cached only)
	stateCost  float64       // state-tier $/hr: DDB units + cache GB-s
}

// stateCacheKey holds the shared counter key for each slot, rendered once
// rather than per operation.
var stateCacheKey = renderKeys("ctr/%02d", stateCacheKeys)

// uncachedWorker is one uncached worker's identity and decode/encode
// scratch. The worker is one sequential process, and the kvstore copies a
// written value once the write's round trip completes, so the counter and
// the buffer are free again whenever the worker is between operations.
type uncachedWorker struct {
	replica string
	ctr     crdt.PNCounter // the last counter read back from the store
	buf     []byte         // the last counter written
}

// read decodes a stored counter into the worker's scratch counter.
func (w *uncachedWorker) read(value []byte) {
	if err := crdt.UnmarshalPNCounterInto(&w.ctr, value); err != nil {
		panic(err)
	}
}

// uncachedAdd is the blackboard-pattern counter write: read the stored
// lattice, join the delta, conditionally write back, retrying lost races.
func uncachedAdd(p *sim.Proc, c *Cloud, ctx *faas.Ctx, w *uncachedWorker, key string, delta int64) {
	for attempt := 0; ; attempt++ {
		var ver int64
		it, err := c.DDB.Get(p, ctx.Node(), key, true)
		switch {
		case err == nil:
			w.read(it.Value)
			ver = it.Version
		case errors.Is(err, kvstore.ErrNotFound):
			w.ctr.Reset()
			ver = 0
		default:
			panic(err)
		}
		w.ctr.Add(w.replica, delta)
		w.buf = w.ctr.AppendJSON(w.buf[:0])
		if _, err := c.DDB.ConditionalPut(p, ctx.Node(), key, w.buf, ver); err == nil {
			return
		} else if !errors.Is(err, kvstore.ErrConditionFailed) {
			panic(err)
		}
		if attempt == 8 {
			panic("statecache exp: unbounded write contention")
		}
	}
}

// runStateCache measures one variant: workers concurrent stateful workers
// (one per VM/replica), cached via gossip at the given interval when
// cached is set, all against the same op mix and seed.
func runStateCache(seed uint64, workers int, interval time.Duration, cached bool) stateCacheResult {
	cfg := DefaultConfig()
	// One container per VM so each worker invocation owns one colocated
	// replica — the fluid-state deployment §4 sketches.
	cfg.Lambda.ContainersPerVM = 1
	c := NewCloudWith(seed, cfg)
	defer c.Close()

	var cl *statecache.Cluster
	if cached {
		sc := statecache.DefaultConfig()
		sc.GossipInterval = interval
		sc.FlushInterval = stateCacheFlushEvery
		cl = statecache.New("cache", c.Net, c.DDB, c.RNG.Fork(), sc, c.Catalog, c.Meter)
		c.Lambda.AttachStateCache(cl)
	}

	rec := stats.NewRecorder("statecache-read")
	ops := 0
	end := sim.Time(stateCacheWindow)
	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		p := ctx.Proc()
		worker := int(payload[0])
		rng := simrand.New(seed*1000 + uint64(worker) + 1)
		think := simrand.Exponential{Mean: stateCacheThink}
		w := &uncachedWorker{replica: fmt.Sprintf("w%d", worker)}
		for p.Now() < end {
			p.Sleep(think.Sample(rng))
			key := stateCacheKey[rng.Intn(stateCacheKeys)]
			if rng.Float64() < 0.2 {
				if cached {
					ctx.Cache().AddCounter(p, key, 1)
				} else {
					uncachedAdd(p, c, ctx, w, key, 1)
				}
			} else {
				start := p.Now()
				if cached {
					ctx.Cache().Counter(p, key)
				} else {
					// Eventual reads: the cheaper, paper-typical serving
					// read; misses on unwritten keys read as zero.
					if it, err := c.DDB.Get(p, ctx.Node(), key, false); err == nil {
						w.read(it.Value)
					} else if !errors.Is(err, kvstore.ErrNotFound) {
						panic(err)
					}
				}
				rec.Add(time.Duration(p.Now() - start))
			}
			ops++
		}
		return nil, nil
	}
	if err := c.Lambda.Register(faas.Function{
		Name: "worker", MemoryMB: stateCacheMemoryMB, Timeout: time.Minute, Handler: handler,
	}); err != nil {
		panic(err)
	}

	done := false
	c.K.Spawn("driver", func(p *sim.Proc) {
		var wg sim.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			payload := []byte{byte(i)}
			p.Spawn(fmt.Sprintf("worker-%d", i), func(wp *sim.Proc) {
				defer wg.Done()
				if _, _, err := c.Lambda.Invoke(wp, "worker", payload); err != nil {
					panic(err)
				}
			})
			p.Sleep(10 * time.Millisecond) // stagger the cold-start wave
		}
		wg.Wait(p)
		if cl != nil {
			// Quiesce: writes have stopped; let anti-entropy finish and
			// settle the memory bill before reading the meter.
			p.Sleep(3*interval + time.Second)
			cl.Accrue(p.Now())
		}
		done = true
	})
	if !runKernelUntil(c.K, end+sim.Time(30*time.Second), sim.Time(time.Second),
		func() bool { return done }) {
		panic("statecache experiment did not finish")
	}

	stateCost := float64(c.Meter.Cost("dynamodb.read") + c.Meter.Cost("dynamodb.write") +
		c.Meter.Cost("statecache.gbsec"))
	res := stateCacheResult{
		workers:    workers,
		interval:   interval,
		ops:        ops,
		throughput: float64(ops) / stateCacheWindow.Seconds(),
		p50:        rec.Percentile(50),
		p99:        rec.Percentile(99),
		stateCost:  stateCost / stateCacheWindow.Hours(),
	}
	if cl != nil {
		res.label = "cached"
		res.staleP99 = cl.Staleness().Percentile(99)
		if rounds := cl.GossipRounds(); rounds > 0 {
			res.gossipPer = cl.GossipBytes().Total() / rounds
		}
	} else {
		res.label = "uncached"
	}
	return res
}

// RunStateCache regenerates the function-colocated state-cache table:
// identical stateful workloads against the DynamoDB-class store (the
// paper's data-shipping baseline) and against VM-colocated CRDT replicas
// converged by gossip, sweeping replica count and gossip interval.
func RunStateCache(seed uint64) []*Table {
	t := &Table{
		Title: "§4 fluid state: function-colocated CRDT cache vs storage round trips",
		Header: []string{"Variant", "Replicas", "Gossip", "Ops/s", "Read p50",
			"Read p99", "Stale p99", "Gossip/rnd", "State $/hr"},
	}
	type point struct {
		workers  int
		interval time.Duration
		cached   bool
	}
	points := []point{
		{4, 0, false},
		{2, 200 * time.Millisecond, true},
		{4, 200 * time.Millisecond, true},
		{8, 200 * time.Millisecond, true},
		{4, 50 * time.Millisecond, true},
		{4, time.Second, true},
	}
	// The replicas × gossip grid points are independent simulations keyed
	// by (seed, point parameters); the sweep engine farms them across
	// cores and commits results in point order.
	results := sweep.Map(points, func(_ int, pt point) stateCacheResult {
		return runStateCache(seed, pt.workers, pt.interval, pt.cached)
	})
	var uncached, cached stateCacheResult // cached: 4 replicas, 200ms gossip
	for i, pt := range points {
		r := results[i]
		gossip, stale, perRound := "—", "—", "—"
		if pt.cached {
			gossip = FmtDur(r.interval)
			stale = FmtDur(r.staleP99)
			perRound = FmtBytes(r.gossipPer)
		}
		if !pt.cached {
			uncached = r
		} else if pt.workers == 4 && pt.interval == 200*time.Millisecond {
			cached = r
		}
		t.AddRow(
			r.label,
			fmt.Sprintf("%d", r.workers),
			gossip,
			fmt.Sprintf("%.0f", r.throughput),
			FmtDur(r.p50),
			FmtDur(r.p99),
			stale,
			perRound,
			fmt.Sprintf("$%.2f/hr", r.stateCost),
		)
	}
	if cached.p99 > 0 {
		t.AddNote("read p99 %v uncached vs %v cached at 4 replicas / 200ms gossip (%s lower)",
			FmtDur(uncached.p99), FmtDur(cached.p99),
			FmtRatio(float64(uncached.p99)/float64(cached.p99)))
	}
	t.AddMetric("read-p99.uncached", "ns", float64(uncached.p99))
	t.AddMetric("read-p99.cached", "ns", float64(cached.p99))
	t.AddMetric("stale-p99.cached", "ns", float64(cached.staleP99))
	t.AddNote("identical op mix both variants: 80%% reads / 20%% counter deltas over %d shared keys,",
		stateCacheKeys)
	t.AddNote("%s mean think time per worker; uncached writes are blackboard read-merge-write pairs",
		FmtDur(stateCacheThink))
	t.AddNote("state $/hr = DynamoDB request units + cache GB-seconds + write-behind flushes (%s cadence);",
		FmtDur(stateCacheFlushEvery))
	t.AddNote("staleness = originating write -> gossip visibility on another replica (measured, p99);")
	t.AddNote("gossip/rnd = anti-entropy bytes per completed round, all three legs (-recon swaps the")
	t.AddNote("per-key digest leg for an IBF set-reconciliation summary; see the millionkey experiment)")
	return []*Table{t}
}
