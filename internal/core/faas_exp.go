package core

// The faasscale scenario: the serving-tier counterpart to regionscale. PR 1
// scaled the storage tier; this experiment scales the compute tier the
// paper is actually about — the full FaaS serving stack (open-loop clients
// -> SQS -> event-source pollers -> Lambda handlers -> the sharded
// kvstore) under flash-crowd traffic, sweeping provisioned concurrency.
//
// Flash crowds are where §3's cold-start critique bites: the off-windows
// outlast the warm-pool TTL, so (thanks to the eager reaper) every burst
// hits a cold fleet unless capacity is provisioned ahead of it. Fixed
// provisioned concurrency buys the cold starts away at a keep-warm
// GB-second price; the target-tracking autoscaler pays the cold starts
// once, on the first burst, and meets the rest warm. Each row reports the
// capacity/latency/cost point: done req/s, completion percentiles, the
// cold-start fraction, and the metered hourly bill.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/crdt"
	"repro/internal/faas"
	"repro/internal/loadgen"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

const (
	// faasScaleWindow is the measurement window of virtual time.
	faasScaleWindow = 3 * time.Minute
	// faasScaleRate is the message rate while a burst is on.
	faasScaleRate = 200.0
	// faasScaleOn/Off shape the flash crowd: 10s bursts separated by
	// 50s of silence — longer than the warm-pool TTL below, so an
	// unprovisioned fleet is stone cold at every burst front.
	faasScaleOn  = 10 * time.Second
	faasScaleOff = 50 * time.Second
	// faasScaleWarmTTL shortens the platform's idle-container lifetime
	// so the burst/reap interplay fits the window.
	faasScaleWarmTTL = 30 * time.Second
	// faasScalePollers sizes the event-source poller fleet (each poller
	// carries at most one in-flight invocation).
	faasScalePollers = 24
	// faasScaleShards is the kvstore partition count behind the handlers.
	faasScaleShards = 4
	// faasScaleMemoryMB sizes the handler function.
	faasScaleMemoryMB = 512
	// faasScaleKeySpace is how many distinct keys the handlers write.
	faasScaleKeySpace = 10000
	// faasScaleValueBytes is the written record size.
	faasScaleValueBytes = 256
	// faasScaleAutoLabel marks the autoscaled sweep row.
	faasScaleAutoLabel = "auto"
)

// faasScaleMsg is one serving request: its sequence number and open-loop
// send time, carried through SQS so the handler can measure completion
// latency from arrival.
type faasScaleMsg struct {
	Seq  int   `json:"seq"`
	Sent int64 `json:"sent"` // virtual nanoseconds
}

// appendJSON appends m's encoding/json form, byte for byte, to b.
func (m faasScaleMsg) appendJSON(b []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(m.Seq), 10)
	b = append(b, `,"sent":`...)
	b = strconv.AppendInt(b, m.Sent, 10)
	return append(b, '}')
}

// errFaaSScaleMsg rejects a body that is not appendJSON's canonical form.
var errFaaSScaleMsg = errors.New("faasscale: message is not a canonical {\"seq\":n,\"sent\":n} body")

// parseFaaSScaleMsg decodes exactly the body appendJSON emits,
// `{"seq":<int>,"sent":<int>}` with integers as strconv.AppendInt writes
// them. Only the generator below writes to the queue, so anything else
// (whitespace, reordered keys, escapes, leading zeros, -0, out-of-range
// numbers) is an error rather than a second decoder.
func parseFaaSScaleMsg(b []byte) (faasScaleMsg, error) {
	var m faasScaleMsg
	rest, ok := bytes.CutPrefix(b, []byte(`{"seq":`))
	if !ok {
		return m, errFaaSScaleMsg
	}
	seq, n, ok := crdt.ScanCanonicalInt(rest, strconv.IntSize)
	if !ok {
		return m, errFaaSScaleMsg
	}
	if rest, ok = bytes.CutPrefix(rest[n:], []byte(`,"sent":`)); !ok {
		return m, errFaaSScaleMsg
	}
	sent, n, ok := crdt.ScanCanonicalInt(rest, 64)
	if !ok || string(rest[n:]) != "}" {
		return m, errFaaSScaleMsg
	}
	m.Seq, m.Sent = int(seq), sent
	return m, nil
}

// faasScaleKeys is the handlers' key table, rendered on first use so that
// processes which never run faasscale pay no setup time or memory for it.
var faasScaleKeys = sync.OnceValue(func() []string {
	return renderKeys("evt/%07d", faasScaleKeySpace)
})

// faasScaleResult is one provisioned-concurrency level's measurement.
type faasScaleResult struct {
	provisioned string // fixed count, or "auto"
	submitted   int
	completed   int     // messages durably handled inside the window
	throughput  float64 // completed / window
	p50, p99    time.Duration
	coldFrac    float64 // cold-started fraction of invocations
	peak        int     // handler concurrency high-water mark
	scaleTarget int     // autoscaler's final target (auto row only)
	costPerHr   float64 // full metered bill extrapolated to an hour
}

// runFaaSScale measures one provisioned-concurrency level (fixed if
// provisioned >= 0, autoscaled otherwise).
func runFaaSScale(seed uint64, provisioned int) faasScaleResult {
	cfg := DefaultConfig()
	cfg.Lambda.WarmTTL = faasScaleWarmTTL
	cfg.DDB.ShardCount = faasScaleShards
	c := NewCloudWith(seed, cfg)
	defer c.Close()

	client := c.ClientNode("faasscale-client")
	inQ := c.SQS.CreateQueue("faasscale-in", 2*time.Minute)
	rec := stats.NewRecorder("faasscale")
	value := make([]byte, faasScaleValueBytes)
	var seen []bool // by Seq: SQS is at-least-once; count each Seq once
	keys := faasScaleKeys()

	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		p, node := ctx.Proc(), ctx.Node()
		for body, err := range faas.SQSBodies(payload) {
			if err != nil {
				return nil, err
			}
			m, err := parseFaaSScaleMsg(body)
			if err != nil {
				return nil, err
			}
			key := keys[uint64(m.Seq)*2654435761%faasScaleKeySpace]
			if _, err := c.DDB.Put(p, node, key, value); err != nil {
				return nil, err
			}
			if m.Seq >= len(seen) {
				seen = append(seen, make([]bool, m.Seq+1-len(seen))...)
			}
			if seen[m.Seq] {
				continue // a visibility-timeout redelivery, already measured
			}
			seen[m.Seq] = true
			rec.Add(time.Duration(p.Now() - sim.Time(m.Sent)))
		}
		return nil, nil
	}
	if err := c.Lambda.Register(faas.Function{
		Name: "serve", MemoryMB: faasScaleMemoryMB, Timeout: time.Minute, Handler: handler,
	}); err != nil {
		panic(err)
	}

	gen := loadgen.New(c.RNG.Fork(), &loadgen.Burst{
		On:    loadgen.Poisson{Rate: faasScaleRate},
		OnFor: faasScaleOn, OffFor: faasScaleOff,
	})

	var res faasScaleResult
	done := false
	c.K.Spawn("driver", func(p *sim.Proc) {
		var asc *faas.Autoscaler
		if provisioned > 0 {
			if err := c.Lambda.ProvisionConcurrency(p, "serve", provisioned); err != nil {
				panic(err)
			}
			res.provisioned = fmt.Sprintf("%d", provisioned)
		} else if provisioned < 0 {
			var err error
			asc, err = c.Lambda.Autoscale(faas.AutoscalerConfig{
				Function: "serve", Min: 0, Max: 64,
				TargetUtilization: 0.7,
				Interval:          5 * time.Second,
				ScaleInCooldown:   2 * time.Minute,
			})
			if err != nil {
				panic(err)
			}
			res.provisioned = faasScaleAutoLabel
		} else {
			res.provisioned = "0"
		}
		esm := c.Lambda.MapQueueN(inQ, "serve", ServingBatchSize, faasScalePollers)
		doneGen := gen.Run(p.Kernel(), faasScaleWindow, func(rp *sim.Proc, seq int) {
			// Send copies the body, so it can be built on the stack.
			var buf [64]byte
			body := faasScaleMsg{Seq: seq, Sent: int64(rp.Now())}.appendJSON(buf[:0])
			if _, err := inQ.Send(rp, client, body); err != nil {
				panic(err)
			}
		})
		// The latch releases exactly at the window's end (loadgen
		// contract), freezing the measurement there like regionscale.
		doneGen.Wait(p)
		esm.Stop()
		if asc != nil {
			res.scaleTarget = asc.Target()
			asc.Stop()
		}
		c.Lambda.AccrueProvisioned(p.Now())
		st, err := c.Lambda.Stats("serve")
		if err != nil {
			panic(err)
		}
		res.submitted = gen.Submitted
		res.completed = rec.Count()
		res.throughput = float64(rec.Count()) / faasScaleWindow.Seconds()
		res.p50 = rec.Percentile(50)
		res.p99 = rec.Percentile(99)
		res.coldFrac = st.ColdStartRate()
		res.peak = st.PeakConcurrency
		res.costPerHr = float64(c.Meter.Total()) / faasScaleWindow.Hours()
		done = true
	})
	if !runKernelUntil(c.K, sim.Time(faasScaleWindow)+sim.Time(time.Minute),
		sim.Time(10*time.Second), func() bool { return done }) {
		panic("faasscale did not finish")
	}
	return res
}

// RunFaaSScale regenerates the FaaS serving-tier scaling table: flash-crowd
// load through the full SQS -> Lambda -> kvstore stack at growing
// provisioned concurrency, plus the target-tracking autoscaler.
func RunFaaSScale(seed uint64) []*Table {
	t := &Table{
		Title: "FaaS at region scale: flash-crowd serving vs provisioned concurrency",
		Header: []string{"Provisioned", "Done req/s", "p50", "p99",
			"Cold starts", "Peak conc", "$/hr"},
	}
	// Every provisioned-concurrency level simulates an independent cloud
	// from (seed, prov); the sweep engine runs them concurrently and hands
	// back results in sweep order.
	results := sweep.Map([]int{0, 8, 32, -1}, func(_ int, prov int) faasScaleResult {
		return runFaaSScale(seed, prov)
	})
	for _, r := range results {
		label := r.provisioned
		if label == faasScaleAutoLabel {
			label = fmt.Sprintf("auto (->%d)", r.scaleTarget)
		}
		t.AddRow(
			label,
			fmt.Sprintf("%.1f", r.throughput),
			FmtDur(r.p50),
			FmtDur(r.p99),
			fmt.Sprintf("%.1f%%", r.coldFrac*100),
			fmt.Sprintf("%d", r.peak),
			fmt.Sprintf("$%.2f/hr", r.costPerHr),
		)
		at := "@" + r.provisioned
		t.AddMetric("p99"+at, "ns", float64(r.p99))
		t.AddMetric("cold"+at, "%", r.coldFrac*100)
		t.AddMetric("cost"+at, "USD/hr", r.costPerHr)
	}
	t.AddNote("%.0f msg/s Poisson bursts, %s on / %s off, over %s; warm-pool TTL %s, so",
		faasScaleRate, faasScaleOn, faasScaleOff, faasScaleWindow, faasScaleWarmTTL)
	t.AddNote("an unprovisioned fleet is cold at every burst front; %d ESM pollers, batches of %d,",
		faasScalePollers, ServingBatchSize)
	t.AddNote("handlers write %dB records to a %d-shard kvstore; auto = target-tracking scaler",
		faasScaleValueBytes, faasScaleShards)
	t.AddNote("(utilization 0.7, 5s interval), which pays cold starts once and serves later bursts warm")
	return []*Table{t}
}
