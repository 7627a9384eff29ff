package core

import (
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/faas"
	"repro/internal/loadgen"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweep"
)

// RunAutoscale quantifies §1.2's "one step forward": under workload-driven
// load, FaaS trades a large constant invocation overhead for elasticity.
// A CPU-bound request (50ms of single-core work) is offered at Poisson
// rates below, near, and above a fixed server's capacity:
//
//   - Lambda autoscales containers, so latency stays flat at the
//     invocation overhead no matter the offered rate;
//   - a fixed m5.large (2 cores => ~40 req/s capacity) is 7x faster per
//     request until saturation, after which its queue — and p99 — diverge.
//
// This is the honest counterweight to E1-E8: the paper's critique is not
// that autoscaling is worthless, but that it currently costs data gravity
// and addressability.
func RunAutoscale(seed uint64) []*Table {
	const window = 2 * time.Minute
	rates := []float64{10, 30, 50}

	t := &Table{
		Title:  "§1.2 Autoscaling under open-loop load (50ms CPU-bound requests)",
		Header: []string{"Offered load", "Lambda p50", "Lambda p99", "Fixed EC2 p50", "Fixed EC2 p99"},
	}
	// The 3 rates × 2 platforms make six independent seed-repetition
	// simulations; even-numbered points run the Lambda side, odd the EC2
	// side, preserving the original per-point seeds exactly.
	type quantiles struct{ p50, p99 time.Duration }
	points := sweep.Points(2*len(rates), func(i int) quantiles {
		rate := rates[i/2]
		if i%2 == 0 {
			p50, p99 := autoscaleLambda(seed+uint64(i/2), rate, window)
			return quantiles{p50, p99}
		}
		p50, p99 := autoscaleEC2(seed+uint64(i/2)+100, rate, window)
		return quantiles{p50, p99}
	})
	for i, rate := range rates {
		l, e := points[2*i], points[2*i+1]
		t.AddRow(fmt.Sprintf("%.0f req/s", rate),
			FmtDur(l.p50), FmtDur(l.p99), FmtDur(e.p50), FmtDur(e.p99))
		at := fmt.Sprintf("@%.0f", rate)
		t.AddMetric("lambda.p50"+at, "ns", float64(l.p50))
		t.AddMetric("lambda.p99"+at, "ns", float64(l.p99))
		t.AddMetric("ec2.p50"+at, "ns", float64(e.p50))
		t.AddMetric("ec2.p99"+at, "ns", float64(e.p99))
	}
	t.AddNote("fixed fleet capacity is ~40 req/s (2 cores / 50ms); above it the queue diverges")
	t.AddNote("Lambda's flat latency is the paper's 'step forward'; its height is the overhead E1 measures")
	return []*Table{t}
}

// workBytes is 50ms of single-core work, expressed for each platform's
// calibrated compute rate.
const (
	lambdaWorkBytes = int64(0.05 * 468.6e6) // full-core function
	ec2WorkBytes    = int64(0.05 * 1100e6)  // m5.large core
)

func autoscaleLambda(seed uint64, rate float64, window time.Duration) (p50, p99 time.Duration) {
	c := NewCloud(seed)
	defer c.Close()
	if err := c.Lambda.Register(faas.Function{
		Name: "work", MemoryMB: 1769, Timeout: time.Minute,
		Handler: func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			ctx.Compute(lambdaWorkBytes)
			return nil, nil
		},
	}); err != nil {
		panic(err)
	}
	rec := stats.NewRecorder("lambda")
	gen := loadgen.New(c.RNG.Fork(), loadgen.Poisson{Rate: rate})
	gen.Run(c.K, window, func(p *sim.Proc, _ int) {
		start := p.Now()
		if _, _, err := c.Lambda.Invoke(p, "work", nil); err != nil {
			panic(err)
		}
		rec.Add(time.Duration(p.Now() - start))
	})
	if !runKernelUntil(c.K, sim.Time(window)+sim.Time(30*time.Minute), sim.Time(10*time.Second),
		func() bool { return rec.Count() == gen.Submitted && gen.Submitted > 0 }) {
		panic("autoscale: lambda drain stalled")
	}
	return rec.Median(), rec.Percentile(99)
}

func autoscaleEC2(seed uint64, rate float64, window time.Duration) (p50, p99 time.Duration) {
	c := NewCloud(seed)
	defer c.Close()
	rec := stats.NewRecorder("ec2")

	type req struct {
		start sim.Time
		done  *sim.Latch
	}
	queue := sim.NewQueue[req]()

	ready := &sim.Latch{}
	c.K.Spawn("server", func(p *sim.Proc) {
		inst := c.EC2.Launch(p, compute.M5Large, ClientRack)
		for w := 0; w < inst.Type().VCPUs; w++ {
			p.Spawn("worker", func(wp *sim.Proc) {
				for {
					r, ok := queue.Get(wp)
					if !ok {
						return
					}
					if err := inst.Compute(wp, ec2WorkBytes); err != nil {
						return
					}
					rec.Add(time.Duration(wp.Now() - r.start))
					r.done.Release()
				}
			})
		}
		ready.Release()
	})

	gen := loadgen.New(c.RNG.Fork(), loadgen.Poisson{Rate: rate})
	var submitted int
	c.K.Spawn("drive", func(p *sim.Proc) {
		ready.Wait(p) // wait out instance boot
		gen.Run(p.Kernel(), window, func(rp *sim.Proc, _ int) {
			submitted++
			// Sub-millisecond delivery to the server's queue.
			rp.Sleep(300 * time.Microsecond)
			done := &sim.Latch{}
			queue.Put(req{start: rp.Now(), done: done})
			done.Wait(rp)
		})
	})
	if !runKernelUntil(c.K, sim.Time(window)+sim.Time(2*time.Hour), sim.Time(30*time.Second),
		func() bool { return submitted > 0 && rec.Count() == submitted }) {
		panic("autoscale: ec2 drain stalled")
	}
	return rec.Median(), rec.Percentile(99)
}
