package faas

import (
	"testing"
	"time"

	"repro/internal/pricing"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// newTestQueue attaches an SQS service to the fixture's network and returns
// one queue on it.
func newTestQueue(t *testing.T, f *fixture, name string) *queue.Queue {
	t.Helper()
	svc := queue.NewService("sqs-"+name, f.net, 9, simrand.New(41), pricing.Fall2018(), f.meter)
	return svc.CreateQueue(name, 2*time.Minute)
}

// TestEagerReaperEvictsExpiredWarmContainers: an idle warm container must
// leave the pool the moment its TTL passes — WarmIdle stops overcounting —
// and the emptied VM must be reclaimed.
func TestEagerReaperEvictsExpiredWarmContainers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmTTL = time.Minute
	f := newFixture(t, cfg)
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	f.k.Spawn("c", func(p *sim.Proc) {
		f.pf.Invoke(p, "f", nil)
	})
	f.k.RunUntil(sim.Time(30 * time.Second))
	if got := f.pf.WarmIdle("f"); got != 1 {
		t.Fatalf("warm idle before TTL = %d, want 1", got)
	}
	f.k.RunUntil(sim.Time(5 * time.Minute))
	if got := f.pf.WarmIdle("f"); got != 0 {
		t.Errorf("warm idle after TTL = %d, want 0 (eagerly reaped)", got)
	}
	if got := f.pf.VMCount(); got != 0 {
		t.Errorf("VM count after reap = %d, want 0 (empty VM reclaimed)", got)
	}
}

// TestWarmReuseDefersReap: reusing a container restarts its TTL clock; the
// stale reap timer from the earlier release must not evict it.
func TestWarmReuseDefersReap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmTTL = time.Minute
	f := newFixture(t, cfg)
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	f.k.Spawn("c", func(p *sim.Proc) {
		f.pf.Invoke(p, "f", nil)
		p.Sleep(50 * time.Second)
		_, rep, _ := f.pf.Invoke(p, "f", nil)
		if rep.ColdStart {
			t.Error("reuse inside TTL cold-started")
		}
	})
	// 70s is past the first release's TTL but inside the second's.
	f.k.RunUntil(sim.Time(70 * time.Second))
	if got := f.pf.WarmIdle("f"); got != 1 {
		t.Errorf("warm idle at 70s = %d, want 1 (stale reap timer must not fire)", got)
	}
	f.k.RunUntil(sim.Time(3 * time.Minute))
	if got := f.pf.WarmIdle("f"); got != 0 {
		t.Errorf("warm idle at 3min = %d, want 0", got)
	}
}

// TestReclaimedVMNodeIsRecycled: a cold start after a fleet drain must
// reuse the reclaimed VM's network node instead of allocating a fresh one,
// so long runs do not leak NIC nodes.
func TestReclaimedVMNodeIsRecycled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmTTL = 30 * time.Second
	f := newFixture(t, cfg)
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	f.k.Spawn("c", func(p *sim.Proc) {
		f.pf.Invoke(p, "f", nil)
		p.Sleep(2 * time.Minute) // container expires, VM reclaimed
		_, rep, _ := f.pf.Invoke(p, "f", nil)
		if !rep.ColdStart {
			t.Error("invoke after expiry should cold-start")
		}
	})
	f.k.RunUntil(sim.Time(10 * time.Minute))
	if got := f.pf.nextVM; got != 1 {
		t.Errorf("allocated %d distinct VM nodes, want 1 (reclaimed node recycled)", got)
	}
}

// TestFleetStatsSnapshot: concurrency high-water mark, VM packing, the
// drained warm pool and the cold-start rate.
func TestFleetStatsSnapshot(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	hold := &sim.Latch{}
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
		hold.Wait(ctx.Proc())
		return nil, nil
	}})
	var wg sim.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		f.k.Spawn("c", func(p *sim.Proc) {
			defer wg.Done()
			f.pf.Invoke(p, "f", nil)
		})
	}
	f.k.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(5 * time.Second) // all 20 in their handlers
		if st, _ := f.pf.Stats("f"); st.PeakConcurrency != 20 {
			t.Errorf("peak = %d, want 20", st.PeakConcurrency)
		}
		if n := f.pf.VMCount(); n != 1 {
			t.Errorf("VMs = %d, want 1 (20 containers fully packed)", n)
		}
		hold.Release()
		wg.Wait(p)
		if n := f.pf.WarmIdle("f"); n != 20 {
			t.Errorf("warm idle after drain = %d, want 20", n)
		}
		// Counters land when invocations complete: 20 of 20 cold.
		if st, _ := f.pf.Stats("f"); st.ColdStartRate() != 1.0 {
			t.Errorf("cold-start rate = %.2f, want 1.0", st.ColdStartRate())
		}
	})
	f.k.RunUntil(sim.Time(time.Minute))
}

// TestTakePeakConcurrencyWindows: the autoscaler's signal is the peak since
// the previous sample, restarting at the current in-flight level.
func TestTakePeakConcurrencyWindows(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.Proc().Sleep(time.Second)
		return nil, nil
	}})
	var wg sim.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		f.k.Spawn("c", func(p *sim.Proc) {
			defer wg.Done()
			f.pf.Invoke(p, "f", nil)
		})
	}
	f.k.Spawn("sampler", func(p *sim.Proc) {
		wg.Wait(p)
		stats := &f.pf.functions["f"].stats
		if peak := stats.takePeak(); peak != 3 {
			t.Errorf("first window peak = %d, want 3", peak)
		}
		if peak := stats.takePeak(); peak != 0 {
			t.Errorf("second window peak = %d, want 0 (idle)", peak)
		}
	})
	f.k.RunUntil(sim.Time(time.Minute))
}

// TestAutoscalerTracksLoad is the control loop's end-to-end contract: a
// burst of concurrency scales the provisioned pool out to peak/target, a
// later identical burst runs entirely warm, and a quiet period scales the
// pool back in — with the keep-warm time metered.
func TestAutoscalerTracksLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmTTL = 30 * time.Second
	f := newFixture(t, cfg)
	f.pf.Register(Function{Name: "f", MemoryMB: 512, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.Proc().Sleep(time.Second)
		return nil, nil
	}})
	asc, err := f.pf.Autoscale(AutoscalerConfig{
		Function: "f", Min: 0, Max: 64,
		TargetUtilization: 0.5, Interval: 5 * time.Second,
		ScaleInCooldown: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}

	burst := func(p *sim.Proc) {
		var wg sim.WaitGroup
		for i := 0; i < 10; i++ {
			wg.Add(1)
			p.Spawn("inv", func(ip *sim.Proc) {
				defer wg.Done()
				f.pf.Invoke(ip, "f", nil)
			})
		}
		wg.Wait(p)
	}
	f.k.Spawn("driver", func(p *sim.Proc) {
		burst(p) // 10-way concurrency, all cold
		p.Sleep(sim.Time(20*time.Second) - p.Now())
		st, _ := f.pf.Stats("f")
		if st.ColdStarts != 10 {
			t.Errorf("first burst cold starts = %d, want 10", st.ColdStarts)
		}
		// The 5s tick saw peak 10 => target ceil(10/0.5) = 20.
		if asc.Target() != 20 {
			t.Errorf("target after first burst = %d, want 20", asc.Target())
		}
		if got := f.pf.ProvisionedIdle("f"); got != 20 {
			t.Errorf("provisioned idle = %d, want 20", got)
		}
		burst(p) // same load, now absorbed by the provisioned pool
		st, _ = f.pf.Stats("f")
		if st.ColdStarts != 10 {
			t.Errorf("cold starts after second burst = %d, want still 10 (all warm)", st.ColdStarts)
		}
		if st.PeakConcurrency != 10 {
			t.Errorf("peak concurrency = %d, want 10", st.PeakConcurrency)
		}
	})
	f.k.RunUntil(sim.Time(2 * time.Minute))

	// Quiet since ~21s: the scaler should have walked the pool back to Min.
	if asc.Target() != 0 {
		t.Errorf("target after quiet period = %d, want 0", asc.Target())
	}
	if got := f.pf.provisionedCount; got != 0 {
		t.Errorf("provisioned allocated after scale-in = %d, want 0", got)
	}
	f.pf.AccrueProvisioned(f.k.Now())
	if got := f.meter.Cost("lambda.provisioned"); got <= 0 {
		t.Errorf("provisioned keep-warm cost = %v, want > 0", got)
	}
	asc.Stop()
}

// TestAutoscalerMinFloor: Min provisions up front and survives idleness.
func TestAutoscalerMinFloor(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	asc, err := f.pf.Autoscale(AutoscalerConfig{
		Function: "f", Min: 2, Max: 8, TargetUtilization: 0.7, Interval: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunUntil(sim.Time(time.Minute))
	if asc.Target() != 2 {
		t.Errorf("idle target = %d, want Min 2", asc.Target())
	}
	if got := f.pf.ProvisionedIdle("f"); got != 2 {
		t.Errorf("provisioned idle = %d, want 2", got)
	}
	asc.Stop()
}

// TestAutoscalerReprovisionsAfterCrash: a crash storm destroys the whole
// idle provisioned pool out-of-band; the control loop must notice the
// shortfall and rebuild toward its target instead of trusting its own
// bookkeeping.
func TestAutoscalerReprovisionsAfterCrash(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	asc, err := f.pf.Autoscale(AutoscalerConfig{
		Function: "f", Min: 4, Max: 16, TargetUtilization: 0.7, Interval: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.k.RunUntil(sim.Time(10 * time.Second))
	stats := &f.pf.functions["f"].stats
	if got := stats.provisioned; got != 4 {
		t.Fatalf("provisioned before the crash = %d, want Min 4", got)
	}
	// The crash destroys the idle pool (allocation drops to 0, target
	// still 4).
	if n := f.pf.CrashVMs(f.pf.VMCount()); n != 1 {
		t.Fatalf("crashed %d VMs, want 1", n)
	}
	if got := stats.provisioned; got != 0 {
		t.Fatalf("provisioned right after the crash = %d, want 0 (pool destroyed)", got)
	}
	f.k.RunUntil(sim.Time(30 * time.Second))
	if got := stats.provisioned; got != 4 {
		t.Errorf("provisioned after reconcile = %d, want 4 (shortfall re-provisioned)", got)
	}
	asc.Stop()
}

func TestAutoscalerValidation(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	if _, err := f.pf.Autoscale(AutoscalerConfig{Function: "ghost", Max: 1, TargetUtilization: 0.5}); err == nil {
		t.Error("unknown function accepted")
	}
	if _, err := f.pf.Autoscale(AutoscalerConfig{Function: "f", Min: 3, Max: 1, TargetUtilization: 0.5}); err == nil {
		t.Error("inverted bounds accepted")
	}
	if _, err := f.pf.Autoscale(AutoscalerConfig{Function: "f", Max: 1, TargetUtilization: 1.5}); err == nil {
		t.Error("utilization above 1 accepted")
	}
}

// TestMapQueueNRunsParallelPollers: a poller fleet drains the queue with
// overlapping invocations.
func TestMapQueueNRunsParallelPollers(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	q := newTestQueue(t, f, "in")
	processed := 0
	f.pf.Register(Function{Name: "consumer", MemoryMB: 256, Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
		for _, err := range SQSBodies(payload) {
			if err != nil {
				return nil, err
			}
			processed++
		}
		ctx.Proc().Sleep(time.Second)
		return nil, nil
	}})
	live := f.k.LiveProcs()
	esm := f.pf.MapQueueN(q, "consumer", 10, 4)
	if n := f.k.LiveProcs() - live; n != 4 {
		t.Fatalf("MapQueueN spawned %d pollers, want 4", n)
	}
	f.k.Spawn("producer", func(p *sim.Proc) {
		var bodies [][]byte
		for i := 0; i < 10; i++ {
			bodies = append(bodies, []byte{byte(i)})
		}
		for b := 0; b < 4; b++ {
			q.SendBatch(p, f.caller, bodies)
		}
		p.Sleep(time.Minute)
		esm.Stop()
	})
	f.k.RunUntil(sim.Time(5 * time.Minute))
	if processed != 40 {
		t.Errorf("processed %d messages, want 40", processed)
	}
	st, _ := f.pf.Stats("consumer")
	if st.PeakConcurrency < 2 {
		t.Errorf("peak concurrency = %d, want >= 2 (parallel pollers)", st.PeakConcurrency)
	}
}
