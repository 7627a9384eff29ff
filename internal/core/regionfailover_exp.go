package core

// The regionfailover scenario: the multi-region story the paper's §3/§4
// critique implies but single-region experiments cannot show. Two
// regions run the same serving workload — FaaS handlers over a
// function-colocated state cache and a DynamoDB-style global table — while
// a chaos engine severs the inter-region trunk for the middle third of the
// window and crash-reclaims every hosting VM in the secondary region at
// the same instant. The table reports, per phase (pre / during / post),
// tail latency up to p99.9, availability, and metered $/hr, for a healthy
// control run and the chaos run side by side.
//
// What the measurement shows: AP-style operations (cache reads/writes,
// region-local eventual reads) ride out the partition — gossip rounds to
// unreachable peers abort, write-behind flushes park, and the global
// table's replication queues hold — while CP-style consistent reads
// pinned to the primary region fail fast in the severed region, which is
// exactly the availability hole. After the heal, the autoscaler rebuilds
// the crashed fleet, parked queues drain (each deduplicated key ships and
// bills once), and tails recover.
//
// A second table isolates straggler re-dispatch: a 20×-slowed dataflow
// worker strands partitions, and the coordinator names them from a
// constant-size IBF summary (internal/recon) and re-runs them on spare
// agents — speculative execution with O(1)-size progress tracking.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/dataflow"
	"repro/internal/faas"
	"repro/internal/future"
	"repro/internal/kvstore"
	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/statecache"
	"repro/internal/stats"
	"repro/internal/sweep"
)

const (
	// rfWindow is the full-scale measurement window; the partition covers
	// its middle third.
	rfWindow = 30 * time.Second
	// rfRate is the per-region open-loop request rate.
	rfRate = 200.0
	// rfKeys is the hot key space shared by cache and table operations.
	rfKeys = 256
	// rfValueBytes is the global-table write payload.
	rfValueBytes = 256
	// rfWANMean / rfWANSpread shape the inter-region trunk latency
	// (us-east-1 <-> us-west-2 class).
	rfWANMean   = 32 * time.Millisecond
	rfWANSpread = 4 * time.Millisecond
)

// errRegionUnavailable is the handler's fast-fail for operations whose
// required remote region is unreachable — the experiment's availability
// signal (a real client would surface it as a 5xx).
var errRegionUnavailable = errors.New("regionfailover: required region unreachable")

// rfPhases labels the three measurement phases.
var rfPhases = [3]string{"pre", "during", "post"}

// rfPhase is one phase's measurements.
type rfPhase struct {
	rec    stats.Summary
	served int
	failed int
	cost   pricing.USD
}

// rfResult is one variant's full measurement.
type rfResult struct {
	phases    [3]rfPhase
	egress    int64 // total inter-region bytes
	aborted   int64 // gossip rounds severed or partition-aborted
	rounds    int64 // gossip rounds completed
	replLost  int64 // replication batches severed mid-flight
	replDone  int64 // writes applied cross-region
	flushed   int64 // cache write-behind flushes
	crashedVM int   // VMs lost to the storm (0 in the control run)
}

// rfKey renders the shared key for slot i.
func rfKey(i int) string { return fmt.Sprintf("kv/%03d", i) }

// rfHash spreads a (region, sequence) pair into op and key choices without
// consuming simulation RNG — the op mix is a pure function of the arrival.
func rfHash(region, seq int) uint64 {
	x := uint64(region)<<32 ^ uint64(seq)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// runRegionFailover measures one variant. scale shrinks the window (tests
// run at scale < 1 to keep the seeds × workers determinism sweep cheap);
// the partition always covers the middle third.
func runRegionFailover(seed uint64, withChaos bool, scale float64, o Options) rfResult {
	window := time.Duration(float64(rfWindow) * scale)
	partAt, partDur := window/3, window/3

	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(seed)
	cfg := DefaultConfig()
	net := netsim.NewNetwork(k, rng.Fork(), cfg.Latency)
	catalog := pricing.Fall2018()
	meter := &pricing.Meter{}
	// Region 0 is the primary, region 1 the secondary the chaos run severs.
	regions := []int{0, 1}
	net.ConnectRegions(0, 1, netsim.Gbps(1), netsim.WANUniform(rfWANMean, rfWANSpread))
	net.MeterEgress(func(bytes int64) {
		meter.ChargeCost("wan.egress", catalog.WANEgressPerGB*pricing.USD(float64(bytes)/1e9))
	})

	dcfg := cfg.DDB
	dcfg.ShardCount = 4
	gt := kvstore.NewGlobal("dynamodb", net, ServiceRack, rng.Fork(), dcfg,
		kvstore.DefaultGlobalConfig(), regions, catalog, meter)
	defer gt.Close()

	pfs := make([]*faas.Platform, len(regions))
	for r := range pfs {
		prev := net.SetBuildRegion(r)
		pfs[r] = faas.New(fmt.Sprintf("lambda-r%d", r), net, rng.Fork(), cfg.Lambda, catalog, meter)
		net.SetBuildRegion(prev)
	}

	sc := statecache.DefaultConfig()
	sc.SketchStaleness = o.Sketch
	sc.Reconcile = o.Recon
	cl := statecache.New("cache", net, gt.Primary(), rng.Fork(), sc, catalog, meter)
	for _, pf := range pfs {
		pf.AttachStateCache(cl)
	}

	var res rfResult
	for i := range res.phases {
		res.phases[i].rec = o.newSummary("rf-" + rfPhases[i])
	}
	phaseOf := func(now sim.Time) int {
		switch {
		case now < sim.Time(partAt):
			return 0
		case now < sim.Time(partAt+partDur):
			return 1
		default:
			return 2
		}
	}

	value := make([]byte, rfValueBytes)
	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		p := ctx.Proc()
		op := payload[0]
		key := rfKey(int(payload[1])<<8 | int(payload[2]))
		switch {
		case op < 40: // cache read: always region-local (AP)
			ctx.Cache().Counter(p, key)
		case op < 55: // cache counter write: absorbed locally, gossiped
			ctx.Cache().AddCounter(p, key, 1)
		case op < 75: // eventual read against the nearest table replica
			st, ok := gt.Nearest(ctx.Node())
			if !ok {
				return nil, errRegionUnavailable
			}
			if _, err := st.Get(p, ctx.Node(), key, false); err != nil && !errors.Is(err, kvstore.ErrNotFound) {
				panic(err)
			}
		case op < 90: // consistent read pinned to the primary region (CP)
			primary := gt.Primary()
			if !net.Reachable(ctx.Node(), primary.Node()) {
				return nil, errRegionUnavailable
			}
			if _, err := primary.Get(p, ctx.Node(), key, true); err != nil && !errors.Is(err, kvstore.ErrNotFound) {
				panic(err)
			}
		default: // global write through the nearest replica, replicated async
			st, ok := gt.Nearest(ctx.Node())
			if !ok {
				return nil, errRegionUnavailable
			}
			if _, err := st.Put(p, ctx.Node(), key, value); err != nil {
				panic(err)
			}
		}
		return nil, nil
	}
	for _, pf := range pfs {
		if err := pf.Register(faas.Function{
			Name: "serve", MemoryMB: 512, Timeout: time.Minute, Handler: handler,
		}); err != nil {
			panic(err)
		}
		if _, err := pf.Autoscale(faas.AutoscalerConfig{
			Function: "serve", Min: 2, Max: 32,
			TargetUtilization: 0.7, Interval: 2 * time.Second,
		}); err != nil {
			panic(err)
		}
	}

	eng := chaos.New(k, rng.Fork())
	if withChaos {
		eng.PartitionAt(net, 0, 1, partAt, partDur)
		eng.CrashStormAt(pfs[1], 1<<20, partAt) // the whole secondary fleet
	}

	for r := range pfs {
		region := r
		pf := pfs[r]
		gen := loadgen.New(rng.Fork(), loadgen.Poisson{Rate: rfRate})
		gen.Run(k, window, func(p *sim.Proc, seq int) {
			h := rfHash(region, seq)
			keyIdx := int(h>>32) % rfKeys
			payload := []byte{byte(h % 100), byte(keyIdx >> 8), byte(keyIdx)}
			phase := phaseOf(p.Now())
			start := p.Now()
			_, _, err := pf.Invoke(p, "serve", payload)
			switch {
			case err == nil:
				res.phases[phase].rec.Add(time.Duration(p.Now() - start))
				res.phases[phase].served++
			case errors.Is(err, errRegionUnavailable):
				res.phases[phase].failed++
			default:
				panic(err)
			}
		})
	}

	// Phase accountant: settle time-based billing (provisioned GB-s, cache
	// GB-s) at each boundary and snapshot the meter, so each phase's cost
	// is the delta it actually incurred.
	k.Spawn("rf-phase-accountant", func(p *sim.Proc) {
		last := pricing.USD(0)
		for i, b := range []time.Duration{partAt, partAt + partDur, window} {
			p.Sleep(b - time.Duration(p.Now()))
			for _, pf := range pfs {
				pf.AccrueProvisioned(p.Now())
			}
			cl.Accrue(p.Now())
			total := meter.Total()
			res.phases[i].cost = total - last
			last = total
		}
	})

	// Drain: every in-flight request and parked queue resolves well inside
	// a healed window of the same length again.
	k.RunUntil(sim.Time(2 * window))

	res.egress = net.WANBytes(0, 1)
	res.aborted = cl.AbortedRounds()
	res.rounds = cl.GossipRounds()
	res.replLost = gt.LostBatches()
	res.replDone = gt.Replicated()
	res.flushed = cl.FlushWrites()
	if withChaos {
		for _, ev := range eng.Events() {
			var n int
			if _, err := fmt.Sscanf(ev.What, "crash storm: %d VMs", &n); err == nil {
				res.crashedVM += n
			}
		}
	}
	return res
}

// stragglerResult is one rescue policy's measurement.
type stragglerResult struct {
	spares    int
	makespan  time.Duration
	report    dataflow.RedispatchReport
	decodeOK  bool
	partCount int
}

// runStragglerRescue measures dataflow makespan with one 20×-slowed
// primary worker, with and without IBF-named re-dispatch to spare agents.
func runStragglerRescue(seed uint64, spares int) stragglerResult {
	c := NewCloud(seed)
	defer c.Close()
	pf := future.New(c.Net, c.Mesh, c.RNG.Fork(), future.DefaultConfig(), c.Catalog, c.Meter)
	ds := pf.CreateDataSet("shards", 5)
	parts := make([]string, 8)
	for i := range parts {
		parts[i] = fmt.Sprintf("shard-%02d", i)
		ds.AddExtent(parts[i], 50e6)
	}
	job := &dataflow.Job{Input: ds, Partitions: parts, Ops: []dataflow.Op{
		{Name: "parse", Selectivity: 1.0, CostMBps: 1500},
		{Name: "reduce", Selectivity: 0.01, CostMBps: 2000},
	}}
	plan, _, err := dataflow.DefaultEnv().Plan(job)
	if err != nil {
		panic(err)
	}
	var out stragglerResult
	out.spares = spares
	done := false
	c.K.Spawn("driver", func(p *sim.Proc) {
		ex := dataflow.NewExecutor(pf, dataflow.DefaultEnv())
		res, rep, err := ex.ExecuteResilient(p, plan, 4, dataflow.StragglerPolicy{
			Patience: 200 * time.Millisecond,
			Spares:   spares,
			Slow: func(w int) float64 {
				if w == 0 {
					return 20
				}
				return 1
			},
		})
		if err != nil {
			panic(err)
		}
		out.makespan = res.Elapsed
		out.report = *rep
		out.decodeOK = rep.DecodeOK
		out.partCount = res.Partitions
		done = true
	})
	if !runKernelUntil(c.K, sim.Time(10*time.Minute), sim.Time(time.Second),
		func() bool { return done }) {
		panic("straggler rescue did not finish")
	}
	return out
}

// runRegionFailoverTables builds both tables at the given scale (1 for the
// real experiment; tests shrink it).
func runRegionFailoverTables(seed uint64, scale float64, o Options) []*Table {
	window := time.Duration(float64(rfWindow) * scale)
	phaseDur := window / 3

	t := &Table{
		Title: fmt.Sprintf("Region failover: 2 regions, %.0f req/s each, trunk severed + crash storm for the middle third", rfRate),
		Header: []string{"Variant", "Phase", "Done req/s", "p50", "p99", "p99.9",
			"Avail", "$/hr"},
	}
	// The healthy control first, then the chaos run. Each is an independent
	// simulation keyed by (seed, variant); the sweep engine fans them out
	// and commits rows in point order.
	variants := []bool{false, true}
	results := sweep.Map(variants, func(_ int, withChaos bool) rfResult {
		return runRegionFailover(seed, withChaos, scale, o)
	})
	for vi, withChaos := range variants {
		label := "control"
		if withChaos {
			label = "chaos"
		}
		r := results[vi]
		for i := range r.phases {
			ph := &r.phases[i]
			total := ph.served + ph.failed
			avail := 100.0
			if total > 0 {
				avail = 100 * float64(ph.served) / float64(total)
			}
			t.AddRow(
				label,
				rfPhases[i],
				fmt.Sprintf("%.0f", float64(ph.served)/phaseDur.Seconds()),
				FmtDur(ph.rec.Percentile(50)),
				FmtDur(ph.rec.Percentile(99)),
				FmtDur(ph.rec.Percentile(99.9)),
				fmt.Sprintf("%.2f%%", avail),
				fmt.Sprintf("$%.2f/hr", float64(ph.cost)/phaseDur.Hours()),
			)
		}
	}
	c := results[1]
	t.AddNote("chaos: trunk 0-1 severed at %s for %s; all %d secondary-region VMs crash-reclaimed at the same instant",
		FmtDur(phaseDur), FmtDur(phaseDur), c.crashedVM)
	t.AddNote("chaos run: %d/%d gossip rounds aborted, %d replication batches severed (all writes re-queued),",
		c.aborted, c.aborted+c.rounds, c.replLost)
	t.AddNote("%d writes replicated cross-region, %d cache flushes, %s total inter-region egress",
		c.replDone, c.flushed, FmtBytes(c.egress))
	t.AddNote("op mix per request: 40%% cache reads, 15%% cache counter writes, 20%% local eventual reads,")
	t.AddNote("15%% consistent reads pinned to the primary region (fail fast when unreachable -> availability),")
	t.AddNote("10%% global-table writes; autoscaler (min 2, max 32, 70%% util, 2s tick) rebuilds the crashed fleet")

	st := &Table{
		Title:  "Straggler re-dispatch: IBF-named stragglers re-run on spare agents",
		Header: []string{"Rescue", "Makespan", "Stragglers", "Re-dispatched", "Rescued"},
	}
	spares := []int{0, 2}
	sres := sweep.Map(spares, func(_ int, s int) stragglerResult {
		return runStragglerRescue(seed, s)
	})
	for _, r := range sres {
		label := "off"
		if r.spares > 0 {
			label = fmt.Sprintf("%d spares", r.spares)
		}
		st.AddRow(
			label,
			FmtDur(r.makespan),
			fmt.Sprintf("%d", r.report.Stragglers),
			fmt.Sprintf("%d", r.report.Redispatched),
			fmt.Sprintf("%d", r.report.Rescued),
		)
	}
	if len(sres) == 2 && sres[1].makespan > 0 {
		st.AddNote("one of 4 workers runs 20x slow over %d x 50MB partitions; the coordinator tracks outstanding",
			sres[0].partCount)
		st.AddNote("work in a constant-size invertible Bloom filter and names the stragglers by decoding it")
		st.AddNote("(%s -> %s makespan, %s faster)", FmtDur(sres[0].makespan), FmtDur(sres[1].makespan),
			FmtRatio(float64(sres[0].makespan)/float64(sres[1].makespan)))
	}
	return []*Table{t, st}
}

// RunRegionFailover regenerates the multi-region failover tables: tail
// latency, availability, and cost per phase around a WAN partition plus
// crash storm, and the IBF straggler re-dispatch comparison.
func RunRegionFailover(seed uint64, o Options) []*Table {
	return runRegionFailoverTables(seed, 1, o)
}
