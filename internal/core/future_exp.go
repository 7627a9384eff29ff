package core

import (
	"fmt"
	"time"

	"repro/internal/election"
	"repro/internal/future"
	"repro/internal/msgnet"
	"repro/internal/pricing"
	"repro/internal/reviews"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RunFuture re-runs the three case studies on the §4 prototype platform
// (internal/future): long-running addressable virtual agents with fluid
// code/data placement, billed per GB-second like FaaS. The point of the
// table is that the paper's gaps close without giving up autoscaling
// pay-per-use.
func RunFuture(seed uint64) []*Table {
	trainTime, trainCost := futureTraining(seed)
	serveBatch := futureServing(seed + 1)
	electRound := futureElection(seed + 2)

	t := &Table{
		Title:  "§4 prototype: case studies on addressable agents with fluid placement",
		Header: []string{"Case study", "FaaS 2018 (measured/paper)", "Future prototype", "Serverful baseline"},
	}
	t.AddRow("Model training (10 epochs, 90GB)",
		"465min / $0.29", fmt.Sprintf("%s / %s", FmtDur(trainTime), trainCost.String()),
		"21.7min / $0.04 (EC2)")
	t.AddRow("Prediction serving (10-doc batch)",
		"447ms", FmtDur(serveBatch), "2.8ms (EC2+ZeroMQ)")
	t.AddRow("Leader election round",
		"16.7s", FmtDur(electRound), "sub-second (EC2 direct)")
	t.AddNote("the prototype bills fine-grained GB-seconds like Lambda, keeping the pay-per-use")
	t.AddNote("economics while restoring data locality and network addressability")
	t.AddMetric("training", "ns", float64(trainTime))
	t.AddMetric("serving", "ns", float64(serveBatch))
	t.AddMetric("election", "ns", float64(electRound))
	return []*Table{t}
}

// futureTraining: one agent spawned next to the staged corpus; reads are
// page-cache local, compute is a full core — EC2-class speed at FaaS-style
// pay-per-use billing.
func futureTraining(seed uint64) (time.Duration, pricing.USD) {
	c := NewCloud(seed)
	defer c.Close()
	pf := future.New(c.Net, c.Mesh, c.RNG.Fork(), c.Catalog, c.Meter)

	batches := int(TrainingCorpusBytes / TrainingBatchBytes)
	totalIters := TrainingEpochs * batches
	var elapsed time.Duration
	var cost pricing.USD
	done := false
	c.K.Spawn("driver", func(p *sim.Proc) {
		ds := pf.CreateDataSet("reviews", 5)
		for i := 0; i < batches; i++ {
			ds.AddExtent(reviews.BatchKey(i), TrainingBatchBytes)
		}
		agent := pf.SpawnAgent(p, "trainer", TrainingLambdaMemoryMB, ds)
		start := p.Now()
		for i := 0; i < totalIters; i++ {
			if err := agent.Read(p, ds, reviews.BatchKey(i%batches)); err != nil {
				panic(err)
			}
			if err := agent.Compute(p, TrainingBatchBytes); err != nil {
				panic(err)
			}
		}
		elapsed = time.Duration(p.Now() - start)
		cost = agent.Stop(p)
		done = true
	})
	c.K.RunUntil(sim.Time(12 * time.Hour))
	if !done {
		panic("future training did not finish")
	}
	return elapsed, cost
}

// futureServing: client and server agents exchanging batches directly —
// no queue service, no storage hop — at agent (not VM) granularity.
func futureServing(seed uint64) time.Duration {
	c := NewCloud(seed)
	defer c.Close()
	pf := future.New(c.Net, c.Mesh, c.RNG.Fork(), c.Catalog, c.Meter)
	rec := stats.NewRecorder("batch")
	done := false
	c.K.Spawn("driver", func(p *sim.Proc) {
		server := pf.SpawnAgent(p, "classifier", 1024, nil)
		client := pf.SpawnAgent(p, "frontend", 512, nil)
		server.Endpoint().Serve(func(sp *sim.Proc, pk msgnet.Packet) []byte {
			server.Compute(sp, int64(len(pk.Payload)))
			return []byte("clean")
		})
		for b := 0; b < 1000; b++ {
			docs := makeDocs(b)
			start := p.Now()
			for _, d := range docs {
				if _, err := client.Endpoint().Call(p, "classifier", d, 0); err != nil {
					panic(err)
				}
			}
			rec.Add(time.Duration(p.Now() - start))
		}
		done = true
	})
	c.K.RunUntil(sim.Time(time.Hour))
	if !done {
		panic("future serving did not finish")
	}
	return rec.Mean()
}

// futureElection: the same bully protocol, but agents are addressable, so
// the direct transport (and its millisecond timeouts) applies.
func futureElection(seed uint64) time.Duration {
	c := NewCloud(seed)
	defer c.Close()
	pf := future.New(c.Net, c.Mesh, c.RNG.Fork(), c.Catalog, c.Meter)

	const n = 10
	params := election.DirectParams()
	var nodes []*election.Node
	setup := false
	c.K.Spawn("setup", func(p *sim.Proc) {
		ids := make([]int, n)
		agents := make([]*future.Agent, n)
		for i := 0; i < n; i++ {
			ids[i] = i + 1
			agents[i] = pf.SpawnAgent(p, fmt.Sprintf("member-%d", i+1), 256, nil)
		}
		dn := election.NewDirectNet(c.Mesh, params, ids)
		for i := 0; i < n; i++ {
			nd := election.NewNode(ids[i], dn.ForNode(ids[i], agents[i].Node()), params)
			nd.Start(c.K)
			nodes = append(nodes, nd)
		}
		setup = true
	})
	agreedOn := func(want func(int) bool) func() bool {
		return func() bool {
			if !setup {
				return false
			}
			leader := -1
			for _, nd := range nodes {
				if nd.Stopped() {
					continue
				}
				if nd.Leader() < 0 {
					return false
				}
				if leader == -1 {
					leader = nd.Leader()
				} else if nd.Leader() != leader {
					return false
				}
			}
			return leader > 0 && want(leader)
		}
	}
	if !runKernelUntil(c.K, sim.Time(time.Minute), sim.Time(10*time.Millisecond),
		agreedOn(func(l int) bool { return l == n })) {
		panic("future election: no initial agreement")
	}
	c.K.RunUntil(c.K.Now() + sim.Time(2*time.Second)) // settle
	crashAt := c.K.Now()
	nodes[n-1].Stop()
	if !runKernelUntil(c.K, crashAt+sim.Time(time.Minute), sim.Time(time.Millisecond),
		agreedOn(func(l int) bool { return l == n-1 })) {
		panic("future election: failover did not complete")
	}
	return time.Duration(c.K.Now() - crashAt)
}
