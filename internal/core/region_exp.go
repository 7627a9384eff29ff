package core

// The region-scale scenario: the ROADMAP's "heavy traffic from millions of
// users" pointed at one logical DynamoDB table. An open-loop Poisson client
// population offers a fixed aggregate request rate while the table's shard
// count grows. Each shard's front end has finite service concurrency
// (kvstore.Config.ShardConcurrency), so a single partition has a real
// throughput ceiling — roughly ShardConcurrency / mean-op-latency requests
// per second — and the measurement shows aggregate completed throughput
// rising near-linearly with the shard count until the offered load is met.
//
// This is the mechanism the paper's storage-funnel critique implies: when
// all function state flows through a managed store, the store's partition
// count *is* the application's scalability knob.

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
	// regionOfferedRate is the aggregate open-loop request rate, chosen to
	// saturate one shard (~960 req/s at ShardConcurrency 4) roughly
	// four times over so the 1→4 shard speedup is visible.
	regionOfferedRate = 4000.0
	// regionWindow is the measurement window of virtual time.
	regionWindow = 8 * time.Second
	// regionShardConcurrency is each shard front end's service slots.
	regionShardConcurrency = 4
	// regionClients is the number of driver hosts spreading the load.
	regionClients = 8
	// regionKeySpace is how many distinct user keys the load touches.
	regionKeySpace = 100000
	// regionValueBytes is the written value size (a small user record).
	regionValueBytes = 256
)

// regionKey renders "user/%07d" for v < 10^7 without fmt: the key is built
// once per request on the load generator's hot path, where Sprintf's
// formatting machinery dominated the client-side cost.
func regionKey(v uint64) string {
	var b [12]byte
	copy(b[:], "user/")
	for i := len(b) - 1; i >= 5; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[:])
}

// regionResult is one shard count's measurement.
type regionResult struct {
	shards     int
	offered    float64 // requests/second presented
	completed  int     // requests finished inside the window
	throughput float64 // completed / window
	p50, p99   time.Duration
	hotShare   float64 // hottest shard's fraction of served requests
	costPerHr  float64 // metered storage cost extrapolated to an hour
}

// runRegionScale measures one shard count under the standard scenario.
func runRegionScale(seed uint64, shards int) regionResult {
	cfg := DefaultConfig()
	cfg.DDB.ShardCount = shards
	cfg.DDB.ShardConcurrency = regionShardConcurrency
	c := NewCloudWith(seed, cfg)
	defer c.Close()

	clients := make([]*netsim.Node, regionClients)
	for i := range clients {
		clients[i] = c.ClientNode(fmt.Sprintf("region-client-%d", i))
	}

	rec := stats.NewRecorder("region-kv")
	completed := 0
	value := make([]byte, regionValueBytes)
	gen := loadgen.New(c.RNG.Fork(), loadgen.Poisson{Rate: regionOfferedRate})
	gen.Run(c.K, regionWindow, func(p *sim.Proc, seq int) {
		// Knuth-hash the sequence number into the key space so the key
		// choice is deterministic and spread across shards.
		key := regionKey(uint64(seq) * 2654435761 % regionKeySpace)
		node := clients[seq%len(clients)]
		start := p.Now()
		if seq%2 == 0 {
			if _, err := c.DDB.Put(p, node, key, value); err != nil {
				panic(err)
			}
		} else {
			// Misses on not-yet-written keys are fine: they bill and
			// time like any other read.
			_, _ = c.DDB.Get(p, node, key, seq%4 == 1)
		}
		rec.Add(time.Duration(p.Now() - start))
		completed++
	})
	c.K.RunUntil(sim.Time(regionWindow))

	served := int64(0)
	hot := int64(0)
	for _, st := range c.DDB.ShardStats() {
		served += st.Requests
		if st.Requests > hot {
			hot = st.Requests
		}
	}
	hotShare := 0.0
	if served > 0 {
		hotShare = float64(hot) / float64(served)
	}
	return regionResult{
		shards:     shards,
		offered:    regionOfferedRate,
		completed:  completed,
		throughput: float64(completed) / regionWindow.Seconds(),
		p50:        rec.Percentile(50),
		p99:        rec.Percentile(99),
		hotShare:   hotShare,
		costPerHr:  float64(c.Meter.Total()) / regionWindow.Hours(),
	}
}

// RunRegionScale regenerates the region-scale sharding table: aggregate
// throughput, completion latency, hot-shard skew, and extrapolated hourly
// storage cost for a fixed offered load as the table's partition count
// doubles from 1 to 8.
func RunRegionScale(seed uint64) []*Table {
	t := &Table{
		Title: "Region scale: one logical KV table under 4,000 req/s open-loop load",
		Header: []string{"Shards", "Done req/s", "Speedup", "p50", "p99",
			"Hottest shard", "Storage $/hr"},
	}
	// Each shard count is an independent simulation of (seed, shards), so
	// the sweep engine fans the points across cores; rows commit in sweep
	// order, keeping the rendered table byte-identical to a sequential run.
	results := sweep.Map([]int{1, 2, 4, 8}, func(_ int, shards int) regionResult {
		return runRegionScale(seed, shards)
	})
	var base float64
	for _, r := range results {
		if base == 0 {
			base = r.throughput
		}
		t.AddRow(
			fmt.Sprintf("%d", r.shards),
			fmt.Sprintf("%.0f", r.throughput),
			FmtRatio(r.throughput/base),
			FmtDur(r.p50),
			FmtDur(r.p99),
			fmt.Sprintf("%.1f%%", r.hotShare*100),
			fmt.Sprintf("$%.2f/hr", r.costPerHr),
		)
		at := fmt.Sprintf("@%d", r.shards)
		t.AddMetric("rps"+at, "req/s", r.throughput)
		t.AddMetric("p99"+at, "ns", float64(r.p99))
	}
	t.AddNote("per-shard front end limited to %d concurrent requests (~%.0f req/s capacity each)",
		regionShardConcurrency,
		float64(regionShardConcurrency)/(4.18e-3))
	t.AddNote("open-loop Poisson arrivals from %d client hosts over %s of virtual time; 50%% writes,",
		regionClients, regionWindow)
	t.AddNote("25%% consistent reads, 25%% eventual reads across %d keys (FNV-1a hash routing)",
		regionKeySpace)
	return []*Table{t}
}
