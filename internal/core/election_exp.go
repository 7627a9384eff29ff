package core

import (
	"fmt"
	"time"

	"repro/internal/election"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// bbCluster is a blackboard election cluster riding on a Cloud.
type bbCluster struct {
	c     *Cloud
	bb    *election.Blackboard
	nodes []*election.Node
}

func newBBCluster(c *Cloud, n int, params election.Params) *bbCluster {
	bb := election.NewBlackboard(c.DDB, params)
	cl := &bbCluster{c: c, bb: bb}
	for id := 1; id <= n; id++ {
		// Each participant runs on a Lambda-class host.
		host := c.Net.NewNode(fmt.Sprintf("member-%04d", id), 1, netsim.Mbps(538))
		nd := election.NewNode(id, bb.ForNode(id, host), params)
		nd.Start(c.K)
		cl.nodes = append(cl.nodes, nd)
	}
	return cl
}

// agreed returns the common leader among running nodes, or -1.
func (cl *bbCluster) agreed() int {
	leader := -1
	for _, n := range cl.nodes {
		if n.Stopped() {
			continue
		}
		switch {
		case n.Leader() < 0:
			return -1
		case leader == -1:
			leader = n.Leader()
		case n.Leader() != leader:
			return -1
		}
	}
	return leader
}

// nodeByID finds a node.
func (cl *bbCluster) nodeByID(id int) *election.Node {
	for _, n := range cl.nodes {
		if n.ID() == id {
			return n
		}
	}
	return nil
}

// measureRounds crashes the current leader `rounds` times, measuring crash-
// to-agreement latency; each deposed leader stays down (bully order walks
// down the id space).
func (cl *bbCluster) measureRounds(rounds int) *stats.Recorder {
	rec := stats.NewRecorder("round")
	k := cl.c.K
	if !runKernelUntil(k, k.Now()+sim.Time(5*time.Minute), sim.Time(250*time.Millisecond),
		func() bool { return cl.agreed() > 0 }) {
		panic("election: initial agreement not reached")
	}
	for r := 0; r < rounds; r++ {
		// Settle so heartbeats are steady before the crash.
		runKernelUntil(k, k.Now()+sim.Time(20*time.Second), sim.Time(time.Second),
			func() bool { return false })
		leader := cl.agreed()
		if leader <= 0 {
			panic("election: lost agreement between rounds")
		}
		cl.nodeByID(leader).Stop()
		crashAt := k.Now()
		if !runKernelUntil(k, crashAt+sim.Time(3*time.Minute), sim.Time(100*time.Millisecond),
			func() bool { a := cl.agreed(); return a > 0 && a != leader }) {
			panic("election: failover did not complete")
		}
		rec.Add(time.Duration(k.Now() - crashAt))
	}
	return rec
}

// steadyStateUnitsPerCycle runs a settled n-node cluster for a window and
// returns measured DynamoDB read units per node-cycle and writes per second.
func steadyStateUnitsPerCycle(seed uint64, n int, window time.Duration) (readUnits float64, writeUnits float64) {
	c := NewCloud(seed)
	defer c.Close()
	cl := newBBCluster(c, n, election.PaperParams())
	if !runKernelUntil(c.K, sim.Time(3*time.Minute), sim.Time(time.Second),
		func() bool { return cl.agreed() == n }) {
		panic("election: cost cluster did not settle")
	}
	c.Meter.Reset()
	c.K.RunUntil(c.K.Now() + sim.Time(window))
	cycles := float64(n) * window.Seconds() / election.PaperParams().PollInterval.Seconds()
	readUnits = float64(c.Meter.Count("dynamodb.read")) / cycles
	writeUnits = float64(c.Meter.Count("dynamodb.write")) / (float64(n) * window.Seconds())
	return readUnits, writeUnits
}

// RunElection regenerates the §3.1 distributed-computing case study: bully
// leader election with all communication through a DynamoDB blackboard at
// 4 polls per second. It reports the election round latency (paper: 16.7s),
// the share of a 15-minute Lambda lifetime that consumes (paper: 1.9%), and
// the storage bill for a 1,000-node cluster (paper: at least $450/hr).
func RunElection(seed uint64) []*Table {
	// The latency cluster and the two cost clusters are independent
	// simulations with their own seeds, so they sweep concurrently:
	// point 0 crashes leaders on a 10-node cluster, points 1 and 2
	// measure steady-state read units at 10 and 100 nodes. Simulating
	// 1,000 full pollers for an hour would be wasteful; the two measured
	// sizes pin the linear scan law the meter validates.
	type electionPoint struct {
		rounds      *stats.Recorder
		catalog     *pricing.Catalog
		read, write float64
	}
	pts := sweep.Points(3, func(i int) electionPoint {
		switch i {
		case 0:
			// Latency: a 10-node cluster, four leader crashes.
			c := NewCloud(seed)
			defer c.Close()
			cl := newBBCluster(c, 10, election.PaperParams())
			return electionPoint{rounds: cl.measureRounds(4), catalog: c.Catalog}
		case 1:
			r, w := steadyStateUnitsPerCycle(seed+1, 10, 30*time.Second)
			return electionPoint{read: r, write: w}
		default:
			r, w := steadyStateUnitsPerCycle(seed+2, 100, 15*time.Second)
			return electionPoint{read: r, write: w}
		}
	})
	rounds, catalog := pts[0].rounds, pts[0].catalog
	round := rounds.Mean()
	share := round.Seconds() / LambdaLifetime.Seconds() * 100
	r10, w10 := pts[1].read, pts[1].write
	r100, w100 := pts[2].read, pts[2].write
	perCycleAt := func(n float64) float64 {
		// One board scan of n records (measured slope) plus one
		// coordinator read.
		slope := (r100 - r10) / 90
		return r10 + slope*(n-10)
	}
	hourly := func(n float64) float64 {
		cycles := n * 4 * 3600
		readCost := cycles * perCycleAt(n) * 0.25 / 1e6
		writeCost := n * 3600 * ((w10 + w100) / 2) * 1.25 / 1e6
		return readCost + writeCost
	}

	t := &Table{
		Title:  "§3.1 Leader election over a DynamoDB blackboard (4 polls/s)",
		Header: []string{"Metric", "Measured", "Paper"},
	}
	t.AddRow("Election round (crash -> all agree)", FmtDur(round), "16.7s")
	t.AddRow("Share of 15-min lifetime in election", fmt.Sprintf("%.1f%%", share), "1.9%")
	t.AddRow("Storage cost, 1,000 nodes, steady state", fmt.Sprintf("$%.0f/hr", hourly(1000)), ">= $450/hr")
	t.AddRow("Storage cost, 100 nodes (measured)", fmt.Sprintf("$%.2f/hr", hourly(100)), "-")
	t.AddRow("Storage cost, 10 nodes (measured)", fmt.Sprintf("$%.2f/hr", hourly(10)), "-")
	t.AddNote("rounds measured: %d (min %v, max %v)", rounds.Count(),
		FmtDur(rounds.Min()), FmtDur(rounds.Max()))
	t.AddNote("read units per node-cycle: %.1f at 10 nodes, %.1f at 100 nodes (board scan + coordinator read)",
		r10, r100)
	t.AddNote("1,000-node figure applies the measured linear scan law; ~500B records make one scan ~123 units")
	provisioned := catalog.DynamoProvisionedHourly(1000*4*perCycleAt(1000), 1000*((w10+w100)/2))
	t.AddNote("provisioned-capacity alternative (2018's default mode, planned to peak): $%.0f/hr —", float64(provisioned))
	t.AddNote("cheaper than on-demand but still far beyond the marginal cost of direct messaging")
	t.AddMetric("round", "ns", float64(round))
	t.AddMetric("lifetime-share", "%", share)
	t.AddMetric("cost@1000", "USD/hr", hourly(1000))
	return []*Table{t}
}

// RunElectionSweep is the sensitivity ablation: election round latency and
// 1,000-node hourly cost as the polling rate varies, with protocol timeouts
// scaled proportionally (as any deployment tuning them together would).
func RunElectionSweep(seed uint64) []*Table {
	t := &Table{
		Title:  "Sensitivity: bully-on-blackboard vs polling rate (6 nodes, timeouts scaled)",
		Header: []string{"Polling rate", "Round latency", "Read units/s per node", "Est. $/hr at 1,000 nodes"},
	}
	base := election.PaperParams()
	// Each polling rate is an independent cluster seeded by (seed, hz);
	// the sweep engine runs the four rates concurrently.
	type sweepResult struct {
		round       time.Duration
		unitsPerSec float64
	}
	rates := []int{1, 2, 4, 8}
	results := sweep.Map(rates, func(_ int, hz int) sweepResult {
		poll := time.Second / time.Duration(hz)
		scale := float64(poll) / float64(base.PollInterval)
		params := election.Params{
			PollInterval:    poll,
			HeartbeatPeriod: time.Duration(float64(base.HeartbeatPeriod) * scale),
			FailureTimeout:  time.Duration(float64(base.FailureTimeout) * scale),
			OKWait:          time.Duration(float64(base.OKWait) * scale),
			CoordWait:       time.Duration(float64(base.CoordWait) * scale),
		}
		c := NewCloud(seed + uint64(hz))
		defer c.Close()
		cl := newBBCluster(c, 6, params)
		rec := cl.measureRounds(2)

		// Steady-state read-unit rate at this polling frequency.
		c.Meter.Reset()
		c.K.RunUntil(c.K.Now() + sim.Time(30*time.Second))
		return sweepResult{
			round:       rec.Mean(),
			unitsPerSec: float64(c.Meter.Count("dynamodb.read")) / 30 / 6,
		}
	})
	for i, hz := range rates {
		// Extrapolate the 1,000-node scan (123 units) at this rate.
		cost1000 := 1000.0 * float64(hz) * 3600 * 124 * 0.25 / 1e6
		t.AddRow(fmt.Sprintf("%d Hz", hz), FmtDur(results[i].round),
			fmt.Sprintf("%.1f", results[i].unitsPerSec), fmt.Sprintf("$%.0f", cost1000))
		t.AddMetric(fmt.Sprintf("round@%dHz", hz), "ns", float64(results[i].round))
	}
	t.AddNote("with timeouts scaled to the polling period, round latency shrinks ~linearly with the rate")
	t.AddNote("but the storage bill grows linearly too: convergence speed is bought with dollars, not design")
	return []*Table{t}
}
