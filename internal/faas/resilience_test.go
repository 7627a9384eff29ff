package faas

// The faas wiring for the resilience layer: a resilience.Client wraps
// Invoke like any other operation, so invocations get deadlines, retries,
// and hedging with no platform changes. These tests pin the economics of
// that composition — an abandoned or losing invocation keeps executing and
// keeps billing, which is what makes impatient callers expensive.
//
// A Lambda handler is blocking code, so each attempt's start step spawns a
// process that invokes and reports the outcome to the client.

import (
	"errors"
	"testing"
	"time"

	"repro/internal/pricing"
	"repro/internal/resilience"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// invokeVia makes one call through rc that invokes fn, from a stepped
// caller, runs the kernel dry and returns the call's outcome.
func invokeVia(f *fixture, rc *resilience.Client, fn string) error {
	var err error
	op := func(q *sim.Proc) {
		f.k.Spawn("invoke", func(r *sim.Proc) {
			_, _, e := f.pf.Invoke(r, fn, nil)
			rc.Done(q, e)
		})
	}
	f.k.SpawnStep("client", func(p *sim.Proc) {
		rc.DoStep(p, -1, op, func(p *sim.Proc, e error) {
			err = e
			p.Exit()
		})
	})
	f.k.Run()
	return err
}

func TestResilienceDeadlineAbandonsInvokeButStillBills(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "slow", MemoryMB: 1024, Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
		ctx.Proc().Sleep(2 * time.Second)
		return []byte("late"), nil
	}})
	rc := resilience.NewClient(f.k, simrand.New(5), resilience.Config{Deadline: 500 * time.Millisecond})
	err := invokeVia(f, rc, "slow")
	if !errors.Is(err, resilience.ErrDeadline) {
		t.Fatalf("DoStep = %v, want ErrDeadline", err)
	}
	// The abandoned invocation ran to completion after the caller gave up:
	// one full request charge and ≥ 2s of billed GB-seconds.
	if got := f.meter.Count("lambda.request"); got != 1 {
		t.Errorf("lambda.request count = %d, want 1", got)
	}
	if st, _ := f.pf.Stats("slow"); st.Invocations != 1 {
		t.Errorf("stats = %+v, want 1 completed invocation (abandoned invoke still finishes)", st)
	}
	want := pricing.Fall2018().LambdaCompute(1024, 2*time.Second)
	if cost := f.meter.Cost("lambda.gbsec"); cost < want {
		t.Errorf("gbsec cost = %v, want the full 2s run's %v (loser is billed)", cost, want)
	}
}

func TestResilienceHedgedInvokeBillsBothAttempts(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	// First invocation cold-starts (slow); the hedge finds the platform
	// with a second cold start too, but a constant handler sleep keeps
	// both deterministic. The hedge launches at 400ms; whichever attempt
	// completes first wins, and both bill.
	f.pf.Register(Function{Name: "fn", MemoryMB: 1024, Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
		ctx.Proc().Sleep(time.Second)
		return []byte("ok"), nil
	}})
	rc := resilience.NewClient(f.k, simrand.New(5), resilience.Config{HedgeAfter: 400 * time.Millisecond})
	err := invokeVia(f, rc, "fn")
	if err != nil {
		t.Fatalf("DoStep = %v, want nil", err)
	}
	if got := rc.Stats().Hedges; got != 1 {
		t.Fatalf("Hedges = %d, want 1", got)
	}
	if got := f.meter.Count("lambda.request"); got != 2 {
		t.Errorf("lambda.request count = %d, want 2 (hedge loser billed)", got)
	}
	if st, _ := f.pf.Stats("fn"); st.Invocations != 2 {
		t.Errorf("invocations = %d, want both attempts to finish", st.Invocations)
	}
}

func TestResilienceRetriesInvokeFailure(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	calls := 0
	f.pf.Register(Function{Name: "flaky", MemoryMB: 512, Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
		calls++
		if calls < 3 {
			return nil, errors.New("transient")
		}
		return []byte("ok"), nil
	}})
	rc := resilience.NewClient(f.k, simrand.New(5), resilience.Config{
		Attempts:    4,
		BaseBackoff: 50 * time.Millisecond,
	})
	err := invokeVia(f, rc, "flaky")
	if err != nil {
		t.Fatalf("DoStep = %v, want success on the third attempt", err)
	}
	if calls != 3 {
		t.Errorf("handler ran %d times, want 3", calls)
	}
	if got := rc.Stats().Retries; got != 2 {
		t.Errorf("Retries = %d, want 2", got)
	}
}
