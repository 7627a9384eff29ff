package faas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k      *sim.Kernel
	net    *netsim.Network
	pf     *Platform
	meter  *pricing.Meter
	caller *netsim.Node
}

func newFixture(t testing.TB, cfg Config) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(21)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	pf := New("lambda", net, rng.Fork(), cfg, pricing.Fall2018(), meter)
	caller := net.NewNode("client", 0, netsim.Gbps(10))
	return &fixture{k: k, net: net, pf: pf, meter: meter, caller: caller}
}

func noop(ctx *Ctx, payload []byte) ([]byte, error) { return []byte("ok"), nil }

func TestRegisterValidation(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if err := f.pf.Register(Function{Name: "", MemoryMB: 128, Handler: noop}); err == nil {
		t.Error("empty name accepted")
	}
	if err := f.pf.Register(Function{Name: "f", MemoryMB: 0, Handler: noop}); err == nil {
		t.Error("zero memory accepted")
	}
	if err := f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: nil}); err == nil {
		t.Error("nil handler accepted")
	}
	err := f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop, Timeout: 16 * time.Minute})
	if !errors.Is(err, ErrBadTimeout) {
		t.Errorf("over-limit timeout: %v", err)
	}
	err = f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop, Timeout: -time.Second})
	if !errors.Is(err, ErrBadTimeout) {
		t.Errorf("negative timeout: %v", err)
	}
	if err := f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop}); err != nil {
		t.Errorf("valid function rejected: %v", err)
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var err error
	f.k.Spawn("c", func(p *sim.Proc) {
		_, _, err = f.pf.Invoke(p, "ghost", nil)
	})
	f.k.Run()
	if !errors.Is(err, ErrNoSuchFunction) {
		t.Errorf("err = %v", err)
	}
}

func TestPayloadLimit(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	var err error
	f.k.Spawn("c", func(p *sim.Proc) {
		_, _, err = f.pf.Invoke(p, "f", make([]byte, PayloadLimit+1))
	})
	f.k.Run()
	if !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("err = %v", err)
	}
}

// Calibration: Table 1's first column — a no-op invocation with a 1KB
// argument, averaged over 1,000 calls, lands at ~303ms.
func TestNoOpInvokeMatchesTable1(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "noop", MemoryMB: 128, Handler: noop})
	const trials = 1000
	var total sim.Time
	f.k.Spawn("c", func(p *sim.Proc) {
		arg := make([]byte, 1024)
		for i := 0; i < trials; i++ {
			start := p.Now()
			if _, _, err := f.pf.Invoke(p, "noop", arg); err != nil {
				t.Errorf("Invoke: %v", err)
				return
			}
			total += p.Now() - start
		}
	})
	f.k.Run()
	mean := time.Duration(int64(total) / trials)
	if mean < 290*time.Millisecond || mean > 316*time.Millisecond {
		t.Errorf("no-op invoke mean = %v, paper reports 303ms", mean)
	}
}

func TestColdThenWarm(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	var reports []Report
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			_, rep, _ := f.pf.Invoke(p, "f", nil)
			reports = append(reports, rep)
		}
	})
	f.k.Run()
	if !reports[0].ColdStart {
		t.Error("first invocation should cold start")
	}
	if reports[1].ColdStart || reports[2].ColdStart {
		t.Error("subsequent sequential invocations should be warm")
	}
}

func TestWarmTTLExpiry(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WarmTTL = time.Minute
	f := newFixture(t, cfg)
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	var second Report
	f.k.Spawn("c", func(p *sim.Proc) {
		f.pf.Invoke(p, "f", nil)
		p.Sleep(2 * time.Minute) // past TTL
		_, second, _ = f.pf.Invoke(p, "f", nil)
	})
	f.k.Run()
	if !second.ColdStart {
		t.Error("invocation after warm TTL should cold start")
	}
}

func TestLocalStateSurvivesWarmStartsOnly(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
		n, _ := ctx.Local()["count"].(int)
		ctx.Local()["count"] = n + 1
		return []byte{byte(n + 1)}, nil
	}})
	var counts []byte
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			resp, _, _ := f.pf.Invoke(p, "f", nil)
			counts = append(counts, resp[0])
		}
	})
	f.k.Run()
	if counts[0] != 1 || counts[1] != 2 || counts[2] != 3 {
		t.Errorf("warm container state = %v, want [1 2 3]", counts)
	}
}

func TestTimeoutKillsAndBillsCapped(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{
		Name: "slow", MemoryMB: 1024, Timeout: time.Second,
		Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			ctx.Proc().Sleep(10 * time.Second)
			return nil, nil
		},
	})
	var rep Report
	var err error
	f.k.Spawn("c", func(p *sim.Proc) {
		_, rep, err = f.pf.Invoke(p, "slow", nil)
	})
	f.k.Run()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if rep.BilledDuration != time.Second {
		t.Errorf("billed %v, want capped at 1s", rep.BilledDuration)
	}
}

func TestTimedOutContainerNotReused(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	calls := 0
	f.pf.Register(Function{
		Name: "flaky", MemoryMB: 128, Timeout: time.Second,
		Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			calls++
			if calls == 1 {
				ctx.Proc().Sleep(5 * time.Second) // first call times out
			}
			return nil, nil
		},
	})
	var second Report
	f.k.Spawn("c", func(p *sim.Proc) {
		f.pf.Invoke(p, "flaky", nil)
		_, second, _ = f.pf.Invoke(p, "flaky", nil)
	})
	f.k.Run()
	if !second.ColdStart {
		t.Error("container killed by timeout must not be reused warm")
	}
}

func TestMemoryScaledCompute(t *testing.T) {
	cfg := DefaultConfig()
	f := newFixture(t, cfg)
	elapsed := map[int]time.Duration{}
	for _, mem := range []int{640, 1769} {
		mem := mem
		name := map[int]string{640: "small", 1769: "big"}[mem]
		f.pf.Register(Function{Name: name, MemoryMB: mem, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			start := ctx.Proc().Now()
			ctx.Compute(100e6)
			elapsed[mem] = time.Duration(ctx.Proc().Now() - start)
			return nil, nil
		}})
	}
	f.k.Spawn("c", func(p *sim.Proc) {
		f.pf.Invoke(p, "small", nil)
		f.pf.Invoke(p, "big", nil)
	})
	f.k.Run()
	// Paper calibration: 100MB at 640MB memory takes 0.59s.
	if e := elapsed[640]; e < 580*time.Millisecond || e > 600*time.Millisecond {
		t.Errorf("640MB compute over 100MB = %v, paper reports 0.59s", e)
	}
	// A full-core function should be ~2.76x faster (1769/640).
	ratio := float64(elapsed[640]) / float64(elapsed[1769])
	if ratio < 2.6 || ratio > 2.9 {
		t.Errorf("640MB/1769MB compute ratio = %.2f, want ~2.76", ratio)
	}
}

func TestConcurrentInvocationsPackOntoSharedVMs(t *testing.T) {
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
	f.k.Spawn("releaser", func(p *sim.Proc) {
		p.Sleep(5 * time.Second) // all 20 are now in their handlers
		if got := f.pf.VMCount(); got != 1 {
			t.Errorf("20 concurrent containers used %d VMs, want 1 (packed)", got)
		}
		hold.Release()
		wg.Wait(p)
	})
	f.k.Run()
}

func TestTwentyFirstContainerSpillsToSecondVM(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	hold := &sim.Latch{}
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
		hold.Wait(ctx.Proc())
		return nil, nil
	}})
	var wg sim.WaitGroup
	for i := 0; i < 21; i++ {
		wg.Add(1)
		f.k.Spawn("c", func(p *sim.Proc) {
			defer wg.Done()
			f.pf.Invoke(p, "f", nil)
		})
	}
	f.k.Spawn("releaser", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		if got := f.pf.VMCount(); got != 2 {
			t.Errorf("21 containers used %d VMs, want 2", got)
		}
		hold.Release()
		wg.Wait(p)
	})
	f.k.Run()
}

func TestBillingPerHundredMs(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 1024, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.Proc().Sleep(150 * time.Millisecond)
		return nil, nil
	}})
	var rep Report
	f.k.Spawn("c", func(p *sim.Proc) {
		_, rep, _ = f.pf.Invoke(p, "f", nil)
	})
	f.k.Run()
	if rep.BilledDuration != 200*time.Millisecond {
		t.Errorf("billed %v, want 200ms (100ms rounding)", rep.BilledDuration)
	}
	// 1GB for 0.2s at $0.00001667/GB-s plus one request.
	want := 0.00001667*0.2 + 0.20/1e6
	got := float64(f.meter.Total())
	if got < want*0.99 || got > want*1.01 {
		t.Errorf("cost = %v, want ~%v", got, want)
	}
}

func TestHandlerErrorPropagates(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	boom := errors.New("boom")
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
		return nil, boom
	}})
	var err error
	f.k.Spawn("c", func(p *sim.Proc) {
		_, _, err = f.pf.Invoke(p, "f", nil)
	})
	f.k.Run()
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want handler error", err)
	}
}

func TestSQSEventRoundTrip(t *testing.T) {
	msgs := []queue.Message{
		{ID: "m1", Receipt: "r1", Body: []byte("hello")},
		{ID: "m2", Receipt: "r2", Body: []byte("world")},
	}
	var bodies []string
	for body, err := range SQSBodies(AppendSQSEvent(nil, msgs)) {
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		bodies = append(bodies, string(body))
	}
	if len(bodies) != 2 || bodies[0] != "hello" || bodies[1] != "world" {
		t.Errorf("round trip = %q", bodies)
	}
}

func TestEventSourceMappingDrivesFunction(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rng := simrand.New(31)
	qsvc := queue.NewService("sqs", f.net, 9, rng, pricing.Fall2018(), f.meter)
	q := qsvc.CreateQueue("in", 2*time.Minute)

	var processed []string
	f.pf.Register(Function{Name: "consumer", MemoryMB: 256, Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
		for body, err := range SQSBodies(payload) {
			if err != nil {
				return nil, err
			}
			processed = append(processed, string(body))
		}
		return nil, nil
	}})
	esm := f.pf.MapQueue(q, "consumer", 10)

	f.k.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 25; i++ {
			q.Send(p, f.caller, []byte{byte('a' + i)})
		}
		p.Sleep(time.Minute)
		esm.Stop()
	})
	f.k.RunUntil(5 * time.Minute)
	if len(processed) != 25 {
		t.Fatalf("processed %d messages, want 25", len(processed))
	}
	if q.Depth() != 0 || q.InFlight() != 0 {
		t.Errorf("queue not drained: depth=%d inflight=%d", q.Depth(), q.InFlight())
	}
}

func TestEventSourceRedeliversOnFunctionError(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	rng := simrand.New(37)
	qsvc := queue.NewService("sqs", f.net, 9, rng, pricing.Fall2018(), f.meter)
	q := qsvc.CreateQueue("in", 10*time.Second)

	attempts := 0
	f.pf.Register(Function{Name: "retry", MemoryMB: 256, Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
		attempts++
		if attempts == 1 {
			return nil, errors.New("transient")
		}
		return nil, nil
	}})
	esm := f.pf.MapQueue(q, "retry", 10)
	f.k.Spawn("producer", func(p *sim.Proc) {
		q.Send(p, f.caller, []byte("job"))
		p.Sleep(time.Minute)
		esm.Stop()
	})
	f.k.RunUntil(5 * time.Minute)
	if attempts < 2 {
		t.Errorf("attempts = %d, want redelivery after failure", attempts)
	}
	if q.Depth()+q.InFlight() != 0 {
		t.Error("message not eventually consumed")
	}
}

func TestConcurrencyLimitQueues(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.concurrency = sim.NewResource(2)
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
		ctx.Proc().Sleep(10 * time.Second)
		return nil, nil
	}})
	var done [3]sim.Time
	for i := 0; i < 3; i++ {
		i := i
		f.k.Spawn("c", func(p *sim.Proc) {
			f.pf.Invoke(p, "f", nil)
			done[i] = p.Now()
		})
	}
	f.k.Run()
	// Two run together (~10s), the third queues behind them (~20s).
	var last sim.Time
	for _, d := range done {
		if d > last {
			last = d
		}
	}
	if last < 20*time.Second {
		t.Errorf("third invocation finished at %v, want >=20s (throttled)", last)
	}
}

// TestWarmContainerReusesCtx: two sequential invocations on one warm
// container share its Ctx, each still reports its own ColdStart, and each
// sees its own Remaining, at the handler's start and after it has run for
// a while.
func TestWarmContainerReusesCtx(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	type seen struct {
		ctx       *Ctx
		atStart   time.Duration
		afterWork time.Duration
		cold      bool
	}
	var calls []seen
	work := []time.Duration{3 * time.Second, 5 * time.Second}
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Timeout: 10 * time.Second,
		Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
			s := seen{ctx: ctx, atStart: ctx.Remaining()}
			ctx.Proc().Sleep(work[len(calls)])
			s.afterWork = ctx.Remaining()
			calls = append(calls, s)
			return nil, nil
		}})
	f.k.Spawn("c", func(p *sim.Proc) {
		for range work {
			_, rep, err := f.pf.Invoke(p, "f", nil)
			if err != nil {
				t.Errorf("Invoke: %v", err)
			}
			calls[len(calls)-1].cold = rep.ColdStart
		}
	})
	f.k.Run()
	if len(calls) != 2 {
		t.Fatalf("%d invocations ran, want 2", len(calls))
	}
	if calls[0].ctx != calls[1].ctx {
		t.Error("the second invocation did not reuse the warm container's Ctx")
	}
	for i, c := range calls {
		if wantCold := i == 0; c.cold != wantCold {
			t.Errorf("invocation %d: ColdStart %v, want %v", i, c.cold, wantCold)
		}
		if c.atStart != 10*time.Second || c.afterWork != 10*time.Second-work[i] {
			t.Errorf("invocation %d: Remaining %v at start and %v after %v of work, want 10s and %v",
				i, c.atStart, c.afterWork, work[i], 10*time.Second-work[i])
		}
	}
}

// BenchmarkInvokeWarm is one warm invocation per op with a 1 KB payload:
// the routing overhead, the concurrency slot, the warm start and the
// payload transfer run as steps with their state in a recycled record,
// and the container's Ctx is reused, so it allocates nothing once warm.
func BenchmarkInvokeWarm(b *testing.B) {
	f := newFixture(b, DefaultConfig())
	f.pf.Register(Function{Name: "nop", MemoryMB: 128, Handler: func(*Ctx, []byte) ([]byte, error) {
		return nil, nil
	}})
	payload := make([]byte, 1024)
	f.k.Spawn("c", func(p *sim.Proc) {
		f.pf.Invoke(p, "nop", payload) // cold start, then warm
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, rep, err := f.pf.Invoke(p, "nop", payload); err != nil || rep.ColdStart {
				b.Fatalf("invoke: %v (cold %v)", err, rep.ColdStart)
			}
		}
		b.StopTimer()
	})
	f.k.Run()
}
