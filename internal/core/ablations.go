package core

import (
	"time"

	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/sweep"
)

// measureInvoke returns the mean invocation latency of a no-op 1KB call
// over `trials` calls, forcing a cold start per call when forceCold is set.
func measureInvoke(seed uint64, cfg Config, trials int, forceCold bool, o Options) time.Duration {
	if forceCold {
		cfg.Lambda.WarmTTL = 1 // containers expire immediately
	}
	c := NewCloudWith(seed, cfg)
	defer c.Close()
	if err := c.Lambda.Register(faas.Function{
		Name: "noop", MemoryMB: 128, Timeout: time.Minute,
		Handler: func(ctx *faas.Ctx, _ []byte) ([]byte, error) { return nil, nil },
	}); err != nil {
		panic(err)
	}
	rec := o.newSummary("invoke")
	done := false
	c.K.Spawn("driver", func(p *sim.Proc) {
		payload := make([]byte, 1024)
		for i := 0; i < trials; i++ {
			start := p.Now()
			if _, _, err := c.Lambda.Invoke(p, "noop", payload); err != nil {
				panic(err)
			}
			rec.Add(time.Duration(p.Now() - start))
			if forceCold {
				p.Sleep(time.Millisecond) // let the container expire
			}
		}
		done = true
	})
	if !runKernelUntil(c.K, sim.Time(time.Hour), sim.Time(time.Minute),
		func() bool { return done }) {
		panic("ablation: invokes did not finish")
	}
	return rec.Mean()
}

// RunFirecracker regenerates footnote 5's what-if: Firecracker's 125ms
// microVM startup replacing the classic container cold start. The paper's
// claim — "at best modest effects on our results in Table 1" — holds
// because Table 1's number is dominated by invocation overhead, not
// sandbox startup.
func RunFirecracker(seed uint64, o Options) []*Table {
	t := &Table{
		Title:  "Ablation (footnote 5): Firecracker 125ms microVM startup",
		Header: []string{"Scenario", "Classic cold start", "Firecracker", "Change"},
	}
	// The four measurement cells (warm/cold × classic/Firecracker) are
	// independent repetitions keyed by their own seeds; each point builds
	// its config locally so concurrent clouds share nothing.
	type invokePoint struct {
		fire, cold bool
		seed       uint64
		trials     int
	}
	points := []invokePoint{
		{false, false, seed, 300},
		{true, false, seed, 300},
		{false, true, seed + 1, 100},
		{true, true, seed + 1, 100},
	}
	res := sweep.Map(points, func(_ int, pt invokePoint) time.Duration {
		cfg := DefaultConfig()
		if pt.fire {
			cfg.Lambda.ColdStart = simrand.Const(FirecrackerColdStart)
		}
		return measureInvoke(pt.seed, cfg, pt.trials, pt.cold, o)
	})
	warmClassic, warmFire, coldClassic, coldFire := res[0], res[1], res[2], res[3]
	t.AddRow("Warm invoke (Table 1 conditions)", FmtDur(warmClassic), FmtDur(warmFire),
		FmtRatio(float64(warmClassic)/float64(warmFire)))
	t.AddRow("Cold invoke (every call cold)", FmtDur(coldClassic), FmtDur(coldFire),
		FmtRatio(float64(coldClassic)/float64(coldFire)))
	t.AddNote("Table 1's 303ms is invocation-path overhead, not sandbox startup; Firecracker")
	t.AddNote("narrows the cold path but remains orders of magnitude above network messaging (290µs)")
	t.AddMetric("warm.classic", "ns", float64(warmClassic))
	t.AddMetric("warm.firecracker", "ns", float64(warmFire))
	t.AddMetric("cold.classic", "ns", float64(coldClassic))
	t.AddMetric("cold.firecracker", "ns", float64(coldFire))
	return []*Table{t}
}
