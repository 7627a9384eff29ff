package core

// The millionkey scenario: §4's fluid state at a real key space. The
// statecache experiment runs 64 hot keys, where shipping one digest line
// per key per gossip round is harmless; at a million cached keys that
// digest is ~32MB per round per pair, and the O(keys) protocol drowns.
// This experiment preloads ~1M converged keys onto 8–32 replicas, drives
// a small hot write set through a measurement window, and compares the
// default digest protocol against IBF set reconciliation
// (statecache.Config.Reconcile): the IBF summary is ~constant-size, so a
// converged steady-state round costs O(symmetric difference) bytes —
// orders of magnitude below the digest exchange at the same key count.
//
// Phases: writes run for millionKeyWindow, anti-entropy quiesces for
// millionKeyQuiesce (convergence time = last state-changing merge after
// the window), then a steady phase measures the converged bytes/round the
// headline ratio is computed from.

import (
	"fmt"
	"time"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/statecache"
	"repro/internal/sweep"
)

const (
	// millionKeyDefault is the preloaded key-space size.
	millionKeyDefault = 1_000_000
	// millionKeyHot is the hot subset the write window touches, spread
	// evenly across the key space.
	millionKeyHot = 4096
	// millionKeyWriteRate is the cluster-wide write rate during the window.
	millionKeyWriteRate = 500.0
	// millionKeyWindow is the write window of virtual time.
	millionKeyWindow = 2 * time.Second
	// millionKeyQuiesce is the post-window convergence horizon.
	millionKeyQuiesce = 15 * time.Second
	// millionKeySteady is the converged measurement phase the steady-state
	// bytes/round (and the digest-vs-IBF headline ratio) come from.
	millionKeySteady = 5 * time.Second
	// millionKeyGossip is the anti-entropy cadence.
	millionKeyGossip = 200 * time.Millisecond
	// millionKeyCells sizes the IBF summary (~20KB on the wire): decode
	// holds w.h.p. while a pair disagrees on fewer than ~500 keys, which
	// covers the write rate × propagation staleness at this load; larger
	// bursts escalate per recon.go's ladder.
	millionKeyCells = 1024
)

// millionKeyResult is one (protocol, replica count) measurement.
type millionKeyResult struct {
	protocol  string
	replicas  int
	keyCount  int
	writes    int
	rounds    int64
	aborted   int64
	steadyPer int64 // bytes/round across the converged steady phase
	// Whole-run per-round averages by leg.
	summaryPer, payloadPer, pushPer int64
	converge                        time.Duration
	staleP99                        time.Duration
	cacheCost                       float64 // cache GB-second $/hr
}

// runMillionKey measures one protocol at one replica count, parameterized
// by key count so tests and the bench smoke can scale it down.
func runMillionKey(seed uint64, replicas, keyCount int, reconcile bool) millionKeyResult {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(seed)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	catalog := pricing.Fall2018()
	store := kvstore.New("mk-ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(), catalog, meter)

	sc := statecache.DefaultConfig()
	sc.GossipInterval = millionKeyGossip
	// The preloaded space models already-durable state, so the write-behind
	// flush is parked outside the run (its cost story is statecache's).
	sc.FlushInterval = time.Hour
	sc.SketchStaleness = true
	sc.Reconcile = reconcile
	sc.ReconCells = millionKeyCells
	cl := statecache.New("mkcache", net, store, rng.Fork(), sc, catalog, meter)

	caches := make([]*statecache.Cache, replicas)
	for i := range caches {
		node := net.NewNode(fmt.Sprintf("mk-vm-%d", i), 1+i/8, netsim.Mbps(538))
		caches[i] = cl.Attach(node)
	}
	// One shared key-string slice; ascending preload order appends to each
	// replica's sorted index in O(1), and identical values share one
	// template register, so the warm start is allocation-lean.
	keys := make([]string, keyCount)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%08d", i)
	}
	for _, c := range caches {
		for _, key := range keys {
			c.Preload(key, "cold")
		}
	}

	hot := millionKeyHot
	if hot > keyCount {
		hot = keyCount
	}
	stride := keyCount / hot
	writes := 0
	wrng := rng.Fork()
	k.Spawn("mk-writer", func(p *sim.Proc) {
		gap := simrand.Exponential{Mean: time.Duration(float64(time.Second) / millionKeyWriteRate)}
		end := sim.Time(millionKeyWindow)
		for {
			p.Sleep(gap.Sample(wrng))
			if p.Now() >= end {
				return
			}
			c := caches[wrng.Intn(len(caches))]
			key := keys[wrng.Intn(hot)*stride]
			c.SetRegister(p, key, fmt.Sprintf("v%d", writes))
			writes++
		}
	})

	k.RunUntil(sim.Time(millionKeyWindow + millionKeyQuiesce))
	var converge time.Duration
	if lm := cl.LastMergeChange(); lm > sim.Time(millionKeyWindow) {
		converge = time.Duration(lm - sim.Time(millionKeyWindow))
	}
	steadyBase := cl.GossipBytes()
	steadyRounds := cl.GossipRounds()
	k.RunUntil(sim.Time(millionKeyWindow + millionKeyQuiesce + millionKeySteady))
	cl.Accrue(k.Now())

	span := millionKeyWindow + millionKeyQuiesce + millionKeySteady
	traffic := cl.GossipBytes()
	rounds := cl.GossipRounds()
	res := millionKeyResult{
		protocol:  "digest",
		replicas:  replicas,
		keyCount:  keyCount,
		writes:    writes,
		rounds:    rounds,
		aborted:   cl.AbortedRounds(),
		converge:  converge,
		staleP99:  cl.Staleness().Percentile(99),
		cacheCost: float64(meter.Cost("statecache.gbsec")) / span.Hours(),
	}
	if reconcile {
		res.protocol = "ibf"
	}
	if rounds > 0 {
		res.summaryPer = traffic.Summary / rounds
		res.payloadPer = traffic.Payload / rounds
		res.pushPer = traffic.Push / rounds
	}
	if n := rounds - steadyRounds; n > 0 {
		res.steadyPer = (traffic.Total() - steadyBase.Total()) / n
	}
	return res
}

// RunMillionKey regenerates the million-key reconciliation table: the
// digest baseline at 8 replicas against IBF reconciliation at 8/16/32,
// reporting per-round gossip bytes by leg, the converged steady-state
// bytes/round, convergence time after writes stop, staleness p99, and the
// cache memory bill.
func RunMillionKey(seed uint64, _ Options) []*Table {
	t := &Table{
		Title: fmt.Sprintf("Million-key gossip: IBF set reconciliation vs per-key digests (%d keys)",
			millionKeyDefault),
		Header: []string{"Protocol", "Replicas", "Rounds", "Steady B/rnd",
			"Summary B/rnd", "Payload B/rnd", "Push B/rnd", "Converge", "Stale p99", "Cache $/hr"},
	}
	type point struct {
		replicas  int
		reconcile bool
	}
	points := []point{{8, false}, {8, true}, {16, true}, {32, true}}
	// Each point is an independent simulation of (seed, point); the sweep
	// engine fans them across cores and rows commit in point order. (At the
	// full key count each point holds replicas × 1M entries resident —
	// use -workers 1 on RAM-tight machines.)
	results := sweep.Map(points, func(_ int, pt point) millionKeyResult {
		return runMillionKey(seed, pt.replicas, millionKeyDefault, pt.reconcile)
	})
	var digestSteady, ibfSteady int64
	for _, r := range results {
		if r.protocol == "digest" && r.replicas == 8 {
			digestSteady = r.steadyPer
		}
		if r.protocol == "ibf" && r.replicas == 8 {
			ibfSteady = r.steadyPer
		}
		t.AddRow(
			r.protocol,
			fmt.Sprintf("%d", r.replicas),
			fmt.Sprintf("%d", r.rounds),
			FmtBytes(r.steadyPer),
			FmtBytes(r.summaryPer),
			FmtBytes(r.payloadPer),
			FmtBytes(r.pushPer),
			FmtDur(r.converge),
			FmtDur(r.staleP99),
			fmt.Sprintf("$%.2f/hr", r.cacheCost),
		)
	}
	if digestSteady > 0 && ibfSteady > 0 {
		t.AddNote("converged steady state: %s/round digest vs %s/round IBF at 8 replicas (%s fewer bytes)",
			FmtBytes(digestSteady), FmtBytes(ibfSteady),
			FmtRatio(float64(digestSteady)/float64(ibfSteady)))
	}
	t.AddNote("%d keys preloaded converged on every replica; %.0f writes/s over %d hot keys for %s,",
		millionKeyDefault, millionKeyWriteRate, millionKeyHot, FmtDur(millionKeyWindow))
	t.AddNote("then %s of quiesce (converge = last state-changing merge after writes stop) and a %s",
		FmtDur(millionKeyQuiesce), FmtDur(millionKeySteady))
	t.AddNote("steady phase for the converged bytes/round; IBF summary is %d cells (%s + framing)",
		millionKeyCells, FmtBytes(20*int64(millionKeyCells)))
	t.AddNote("per round vs ~%s of per-key digest lines; write-behind flush parked (durability",
		FmtBytes(int64(millionKeyDefault)*32))
	t.AddNote("costs are the statecache experiment's story)")
	return []*Table{t}
}
