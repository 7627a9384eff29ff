package core

// The millionuser scenario: the paper's economics argument is about
// millions of users, and this experiment finally runs at that population.
// Two fixed-memory layers make it feasible: latencies accumulate into a
// stats.Sketch (few-KB footprint, ≤1% percentile error, exact
// count/sum/min/max) instead of the full-retention recorder, and the load
// comes from loadgen.Population — one generator process driving the fluid
// Poisson superposition of a million per-user streams — instead of one
// simulated process per arrival. The sweep then pushes 100k+ req/s against
// a sharded KV table at 16/32/64 partitions: the 16-shard row saturates
// (~61k req/s of service capacity under 100k offered), 32 barely keeps up,
// and 64 has headroom — the same partition-count-is-the-scalability-knob
// story as regionscale, two orders of magnitude up.

import (
	"fmt"
	"time"

	"repro/internal/loadgen"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

const (
	// millionUsersDefault is the simulated client population (the
	// bench-smoke memory gate runs 10⁴ vs 10⁶ through runMillionUser).
	millionUsersDefault = 1_000_000
	// millionRate is the aggregate offered load: the whole population
	// together presents 100k req/s, i.e. 0.1 req/s per user at the
	// default population — light per-user traffic, heavy in sum.
	millionRate = 100_000.0
	// millionWindow is the measurement window of virtual time.
	millionWindow = 5 * time.Second
	// millionKeySpace bounds the hot record set: a million users hash
	// onto 64Ki live records, so store growth is independent of the
	// population size (the fixed-memory claim covers the store too).
	millionKeySpace = 65536
	// millionShardConcurrency is each shard front end's service slots —
	// 4× regionscale's, since this tier serves 25× the offered rate.
	millionShardConcurrency = 16
	// millionClientNodes is the number of driver hosts spreading the load.
	millionClientNodes = 32
	// millionValueBytes is the written record size.
	millionValueBytes = 128
	// millionMaxProcs caps the submission fan-out (in-flight requests).
	millionMaxProcs = 2048
)

// millionResult is one shard count's measurement.
type millionResult struct {
	shards         int
	users          int
	submitted      int
	late           int
	completed      int
	throughput     float64 // completed / window
	p50, p99, p999 time.Duration
	sketchBytes    int
	costPerHr      float64
}

// runMillionUser measures one shard count at the given population, offered
// rate, and window (parameterized so tests and the memory gate can scale
// it down).
func runMillionUser(seed uint64, shards, users int, rate float64, window time.Duration) millionResult {
	cfg := DefaultConfig()
	cfg.DDB.ShardCount = shards
	cfg.DDB.ShardConcurrency = millionShardConcurrency
	c := NewCloudWith(seed, cfg)
	defer c.Close()

	clients := make([]*netsim.Node, millionClientNodes)
	for i := range clients {
		clients[i] = c.ClientNode(fmt.Sprintf("mu-client-%d", i))
	}
	// Precompute the key strings once: a million users share 64Ki records,
	// so the per-request path allocates nothing for key construction.
	keys := make([]string, millionKeySpace)
	for i := range keys {
		keys[i] = regionKey(uint64(i))
	}

	rec := stats.NewSketch("millionuser-kv")
	completed := 0
	value := make([]byte, millionValueBytes)
	pop := loadgen.NewPopulation(c.RNG.Fork(), c.RNG.Fork(), users, rate/float64(users))
	pop.MaxProcs = millionMaxProcs
	pop.Run(c.K, window, func(p *sim.Proc, seq, client int) {
		// Knuth-hash the user id onto the shared record set.
		key := keys[uint64(client)*2654435761%millionKeySpace]
		node := clients[seq%len(clients)]
		start := p.Now()
		if seq%2 == 0 {
			if _, err := c.DDB.Put(p, node, key, value); err != nil {
				panic(err)
			}
		} else {
			_, _ = c.DDB.Get(p, node, key, seq%4 == 1)
		}
		rec.Add(time.Duration(p.Now() - start))
		completed++
	})
	c.K.RunUntil(sim.Time(window))

	return millionResult{
		shards:      shards,
		users:       users,
		submitted:   pop.Submitted,
		late:        pop.Late,
		completed:   completed,
		throughput:  float64(completed) / window.Seconds(),
		p50:         rec.Percentile(50),
		p99:         rec.Percentile(99),
		p999:        rec.Percentile(99.9),
		sketchBytes: rec.Footprint(),
		costPerHr:   float64(c.Meter.Total()) / window.Hours(),
	}
}

// RunMillionUser regenerates the million-user scaling table: aggregate
// completed throughput, sketched tail latencies, sketch footprint, and
// extrapolated hourly storage cost as the partition count doubles from 16
// to 64 under 100k req/s of open-loop population load.
func RunMillionUser(seed uint64, _ Options) []*Table {
	const users = millionUsersDefault
	t := &Table{
		Title: fmt.Sprintf("Million-user scale: %d simulated clients at %.0fk req/s aggregate", users, millionRate/1000),
		Header: []string{"Shards", "Done req/s", "p50", "p99", "p99.9",
			"Sketch KB", "Storage $/hr"},
	}
	// Each shard count is an independent simulation of (seed, shards); the
	// sweep engine fans the points across cores and rows commit in sweep
	// order, byte-identical to a sequential run.
	results := sweep.Map([]int{16, 32, 64}, func(_ int, shards int) millionResult {
		return runMillionUser(seed, shards, users, millionRate, millionWindow)
	})
	for _, r := range results {
		t.AddRow(
			fmt.Sprintf("%d", r.shards),
			fmt.Sprintf("%.0f", r.throughput),
			FmtDur(r.p50),
			FmtDur(r.p99),
			FmtDur(r.p999),
			fmt.Sprintf("%.1f", float64(r.sketchBytes)/1024),
			fmt.Sprintf("$%.2f/hr", r.costPerHr),
		)
		at := fmt.Sprintf("@%d", r.shards)
		t.AddMetric("rps"+at, "req/s", r.throughput)
		t.AddMetric("p50"+at, "ns", float64(r.p50))
		t.AddMetric("p99"+at, "ns", float64(r.p99))
		t.AddMetric("p999"+at, "ns", float64(r.p999))
		t.AddMetric("cost"+at, "USD/hr", r.costPerHr)
	}
	t.AddNote("one generator process drives the fluid Poisson superposition of all %d clients", users)
	t.AddNote("(%.1f req/s per user), thinned onto %d shared records; 50%% writes, 25%% consistent",
		millionRate/float64(users), millionKeySpace)
	t.AddNote("reads, 25%% eventual reads from %d driver hosts, fan-out capped at %d in-flight;",
		millionClientNodes, millionMaxProcs)
	t.AddNote("latency percentiles from a fixed-memory sketch (≤1%% relative error, exact mean/extremes);")
	t.AddNote("per-shard front end serves %d concurrent requests (~%.1fk req/s capacity each)",
		millionShardConcurrency, float64(millionShardConcurrency)/(4.18e-3)/1000)
	return []*Table{t}
}
