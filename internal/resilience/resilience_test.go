package resilience

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

var errBoom = errors.New("boom")

// runCalls makes n calls on c, one after another, from one stepped
// process: call i runs op(i) and hands its outcome and how long it took to
// done(i, ...).
func runCalls(k *sim.Kernel, c *Client, endpoint, n int, op func(i int) func(*sim.Proc), done func(i int, took time.Duration, err error)) {
	i := 0
	var start sim.Time
	var call func(*sim.Proc)
	then := func(p *sim.Proc, err error) {
		if done != nil {
			done(i, p.Now()-start, err)
		}
		i++
		call(p)
	}
	call = func(p *sim.Proc) {
		if i == n {
			p.Exit()
			return
		}
		start = p.Now()
		c.DoStep(p, endpoint, op(i), then)
	}
	k.SpawnStep("test", call)
}

// after returns an attempt that takes d and then ends with err.
func after(c *Client, d time.Duration, err error) func(*sim.Proc) {
	return func(q *sim.Proc) {
		q.WakeAfter(d, func(q *sim.Proc) { c.Done(q, err) })
	}
}

func TestZeroConfigPassThrough(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{})
	attempts := 0
	var errs []error
	runCalls(k, c, -1, 2, func(i int) func(*sim.Proc) {
		return func(q *sim.Proc) {
			attempts++
			if i == 0 {
				after(c, time.Millisecond, nil)(q)
				return
			}
			c.Done(q, errBoom)
		}
	}, func(_ int, _ time.Duration, err error) { errs = append(errs, err) })
	k.Run()
	if len(errs) != 2 || errs[0] != nil || errs[1] != errBoom {
		t.Errorf("DoStep outcomes = %v, want [nil boom]", errs)
	}
	st := c.Stats()
	if st.Calls != 2 || attempts != 2 || st.Retries != 0 {
		t.Errorf("stats = %+v after %d attempts, want 2 calls, 2 attempts, 0 retries", st, attempts)
	}
	if s := k.Sched(); s.Resumes != 0 {
		t.Errorf("%d coroutine resumes, want none", s.Resumes)
	}
}

func TestRetriesUntilSuccess(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Attempts: 4, BaseBackoff: 10 * time.Millisecond})
	var elapsed time.Duration
	attempts := 0
	fails := 2
	runCalls(k, c, -1, 1, func(int) func(*sim.Proc) {
		return func(q *sim.Proc) {
			attempts++
			if fails > 0 {
				fails--
				c.Done(q, errBoom)
				return
			}
			c.Done(q, nil)
		}
	}, func(_ int, took time.Duration, err error) {
		elapsed = took
		if err != nil {
			t.Errorf("DoStep = %v, want nil after retries", err)
		}
	})
	k.Run()
	st := c.Stats()
	if attempts != 3 || st.Retries != 2 {
		t.Errorf("stats = %+v after %d attempts, want 3 attempts / 2 retries", st, attempts)
	}
	// Two backoff sleeps of at least BaseBackoff each must have elapsed.
	if elapsed < 20*time.Millisecond {
		t.Errorf("elapsed = %v, want >= 20ms of backoff", elapsed)
	}
}

func TestDeadlineAbandonsSlowOp(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Deadline: 50 * time.Millisecond})
	finished := 0
	var took time.Duration
	runCalls(k, c, -1, 1, func(int) func(*sim.Proc) {
		return func(q *sim.Proc) {
			q.WakeAfter(time.Second, func(q *sim.Proc) { // far past the deadline
				finished++
				c.Done(q, nil)
			})
		}
	}, func(_ int, d time.Duration, err error) {
		took = d
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("DoStep = %v, want ErrDeadline", err)
		}
	})
	k.Run()
	if took != 50*time.Millisecond {
		t.Errorf("caller waited %v, want exactly the 50ms deadline", took)
	}
	// The abandoned attempt still runs to completion on the kernel: that is
	// the billed-wasted-work semantics the retry storm depends on.
	if finished != 1 {
		t.Errorf("abandoned op finished %d times, want 1 (keeps running server-side)", finished)
	}
	if st := c.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
	if n := k.LiveProcs(); n != 0 {
		t.Errorf("%d processes left, want the abandoned attempt to exit", n)
	}
}

// TestAbandonedAttemptKeepsArgumentsReadAtStart pins the contract that
// lets a caller reuse one op across calls: op runs at attempt start, while
// the call is in progress, so an op that copies caller-owned state at its
// start keeps that copy even after a timed-out call ends and the caller
// rewrites the state for its next call.
func TestAbandonedAttemptKeepsArgumentsReadAtStart(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Attempts: 1, Deadline: 10 * time.Millisecond})
	arg := 0
	var recorded []int
	op := func(q *sim.Proc) {
		mine := arg
		q.WakeAfter(50*time.Millisecond, func(q *sim.Proc) { // far past the deadline
			recorded = append(recorded, mine)
			c.Done(q, nil)
		})
	}
	runCalls(k, c, -1, 2, func(i int) func(*sim.Proc) {
		arg = i + 1 // the first attempt is still in flight for the second call
		return op
	}, func(i int, _ time.Duration, err error) {
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("call %d: DoStep = %v, want ErrDeadline", i, err)
		}
	})
	k.Run()
	if len(recorded) != 2 || recorded[0] != 1 || recorded[1] != 2 {
		t.Errorf("abandoned attempts recorded %v, want [1 2]", recorded)
	}
}

func TestDeadlineTimerStoppedOnFastSuccess(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Deadline: 50 * time.Millisecond})
	runCalls(k, c, -1, 3, func(int) func(*sim.Proc) {
		return after(c, time.Millisecond, nil)
	}, func(i int, _ time.Duration, err error) {
		if err != nil {
			t.Errorf("call %d: DoStep = %v, want nil", i, err)
		}
	})
	k.Run()
	if st := c.Stats(); st.Timeouts != 0 || st.Calls != 3 {
		t.Errorf("stats = %+v, want 3 clean calls, 0 timeouts", st)
	}
	if n := k.Pending(); n != 0 {
		t.Errorf("%d events left, want the deadline timers stopped", n)
	}
}

func TestHedgeFirstCompletionWins(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{HedgeAfter: 20 * time.Millisecond})
	launches := 0
	var took time.Duration
	runCalls(k, c, -1, 1, func(int) func(*sim.Proc) {
		return func(q *sim.Proc) {
			launches++
			if launches == 1 {
				after(c, time.Second, nil)(q) // slow primary
			} else {
				after(c, 5*time.Millisecond, nil)(q) // fast hedge
			}
		}
	}, func(_ int, d time.Duration, err error) {
		took = d
		if err != nil {
			t.Errorf("DoStep = %v, want nil (hedge wins)", err)
		}
	})
	k.Run()
	if launches != 2 {
		t.Errorf("launches = %d, want primary + hedge", launches)
	}
	if took != 25*time.Millisecond {
		t.Errorf("call took %v, want 25ms (hedge delay + fast attempt)", took)
	}
	if st := c.Stats(); st.Hedges != 1 {
		t.Errorf("Hedges = %d, want 1", st.Hedges)
	}
}

func TestHedgeNotLaunchedWhenPrimaryFast(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{HedgeAfter: 20 * time.Millisecond})
	launches := 0
	runCalls(k, c, -1, 1, func(int) func(*sim.Proc) {
		return func(q *sim.Proc) {
			launches++
			after(c, time.Millisecond, nil)(q)
		}
	}, nil)
	k.Run()
	if launches != 1 {
		t.Errorf("launches = %d, want 1 (no hedge for a fast primary)", launches)
	}
	if st := c.Stats(); st.Hedges != 0 {
		t.Errorf("Hedges = %d, want 0", st.Hedges)
	}
}

// A client runs one call at a time: a second DoStep before the first call
// ends is a caller's bug, and it panics rather than corrupt the first.
func TestDoStepOnBusyClientPanics(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Deadline: time.Second})
	op := after(c, time.Millisecond, nil)
	k.SpawnStep("first", func(p *sim.Proc) { c.DoStep(p, -1, op, func(p *sim.Proc, _ error) { p.Exit() }) })
	k.SpawnStep("second", func(p *sim.Proc) { c.DoStep(p, -1, op, func(p *sim.Proc, _ error) { p.Exit() }) })
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "in progress") {
			t.Errorf("recovered %v, want the in-progress panic", r)
		}
	}()
	k.Run()
}

func TestBudgetCapsRetries(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Attempts: 3})
	c.SetBudget(NewBudget(0.1, 2))
	// Every call fails; with burst 2 and ratio 0.1 only the first few
	// retries are granted, then the budget pins attempts ~= calls.
	runCalls(k, c, -1, 50, func(int) func(*sim.Proc) {
		return func(q *sim.Proc) { c.Done(q, errBoom) }
	}, nil)
	k.Run()
	st := c.Stats()
	if st.BudgetDenied == 0 {
		t.Fatalf("stats = %+v, want some budget denials", st)
	}
	// 50 calls deposit 5 tokens + burst 2: at most 7 retries.
	if st.Retries > 7 {
		t.Errorf("Retries = %d, want <= 7 (budget must cap amplification)", st.Retries)
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	br := NewBreaker(BreakerConfig{Window: 8, MinSamples: 4, FailureRate: 0.5, Cooldown: time.Second, HalfOpenProbes: 1})
	now := time.Duration(0)
	for i := 0; i < 4; i++ {
		if !br.Allow(now) {
			t.Fatalf("closed breaker rejected call %d", i)
		}
		br.Record(now, false)
	}
	if br.State(now) != Open {
		t.Fatalf("state = %d after 4/4 failures, want Open", br.State(now))
	}
	if br.Allow(now + 500*time.Millisecond) {
		t.Error("open breaker allowed a call before cooldown")
	}
	now += time.Second
	if !br.Allow(now) {
		t.Fatal("half-open breaker rejected the first probe")
	}
	if br.Allow(now) {
		t.Error("half-open breaker allowed a second probe with HalfOpenProbes=1")
	}
	br.Record(now, true)
	if br.State(now) != Closed {
		t.Errorf("state = %d after probe success, want Closed", br.State(now))
	}
	if !br.Allow(now) {
		t.Error("re-closed breaker rejected a call")
	}
	if br.Trips() != 1 {
		t.Errorf("Trips = %d, want 1", br.Trips())
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	br := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Second, HalfOpenProbes: 1})
	br.Record(0, false)
	br.Record(0, false)
	if br.State(0) != Open {
		t.Fatal("breaker did not trip")
	}
	now := time.Second
	if !br.Allow(now) {
		t.Fatal("no probe allowed after cooldown")
	}
	br.Record(now, false)
	if br.State(now) != Open {
		t.Error("probe failure did not re-open")
	}
	if br.Allow(now + 500*time.Millisecond) {
		t.Error("re-opened breaker allowed a call before the new cooldown")
	}
	if br.Trips() != 2 {
		t.Errorf("Trips = %d, want 2", br.Trips())
	}
}

func TestBreakerIgnoresStragglersWhileOpen(t *testing.T) {
	br := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Second})
	br.Record(0, false)
	br.Record(0, false)
	if br.State(0) != Open {
		t.Fatal("breaker did not trip")
	}
	// A slow success from before the trip lands while open: must not
	// corrupt the (empty) window or change state.
	br.Record(100*time.Millisecond, true)
	if br.State(100*time.Millisecond) != Open {
		t.Error("straggler outcome changed an open breaker's state")
	}
}

func TestClientShortCircuitsOnOpenBreaker(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	br := NewBreaker(BreakerConfig{Window: 4, MinSamples: 2, FailureRate: 0.5, Cooldown: time.Hour})
	c := NewClient(k, simrand.New(1), Config{Attempts: 2})
	c.SetBreakers([]*Breaker{br})
	var last error
	ops := 0
	op := func(q *sim.Proc) { ops++; c.Done(q, errBoom) }
	runCalls(k, c, 0, 5, func(int) func(*sim.Proc) { return op },
		func(_ int, _ time.Duration, err error) { last = err })
	k.Run()
	if last != ErrBreakerOpen {
		t.Errorf("last err = %v, want ErrBreakerOpen", last)
	}
	st := c.Stats()
	if st.ShortCircuits == 0 {
		t.Error("no short circuits recorded against a tripped breaker")
	}
	// Once tripped (after 2 failures), no further ops reach the endpoint.
	if ops != 2 {
		t.Errorf("ops = %d, want 2 (breaker must stop traffic)", ops)
	}
}

func TestBackoffBoundsAndGrowth(t *testing.T) {
	rng := simrand.New(7)
	base, cap_ := 10*time.Millisecond, 200*time.Millisecond
	prev := base
	maxSeen := time.Duration(0)
	for i := 0; i < 1000; i++ {
		d := Backoff(rng, base, cap_, prev)
		if d < base || d > cap_ {
			t.Fatalf("draw %d: %v outside [%v, %v]", i, d, base, cap_)
		}
		if hi := 3 * prev; hi < cap_ && d > hi {
			t.Fatalf("draw %d: %v exceeds 3x prev (%v)", i, d, hi)
		}
		prev = d
		if d > maxSeen {
			maxSeen = d
		}
	}
	if float64(maxSeen) < 0.8*float64(cap_) {
		t.Errorf("max draw %v never approached cap %v — growth broken", maxSeen, cap_)
	}
}

func TestBackoffDeterministicPerSeed(t *testing.T) {
	a, b := simrand.New(42), simrand.New(42)
	prevA, prevB := 5*time.Millisecond, 5*time.Millisecond
	for i := 0; i < 100; i++ {
		da := Backoff(a, 5*time.Millisecond, 80*time.Millisecond, prevA)
		db := Backoff(b, 5*time.Millisecond, 80*time.Millisecond, prevB)
		if da != db {
			t.Fatalf("draw %d: %v != %v for identical seeds", i, da, db)
		}
		prevA, prevB = da, db
	}
}

func TestBudgetArithmetic(t *testing.T) {
	b := NewBudget(0.5, 3)
	if !b.TryTake() || !b.TryTake() || !b.TryTake() {
		t.Fatal("burst of 3 did not grant 3 takes")
	}
	if b.TryTake() {
		t.Fatal("empty budget granted a take")
	}
	if b.Balance() != 0 {
		t.Errorf("Balance after a denied take = %v, want 0", b.Balance())
	}
	b.Deposit()
	b.Deposit() // 2 deposits at ratio 0.5 = 1 token
	if !b.TryTake() {
		t.Error("budget did not refill from deposits")
	}
	for i := 0; i < 100; i++ {
		b.Deposit()
	}
	if got := b.Balance(); math.Abs(got-3) > 1e-9 {
		t.Errorf("Balance = %v after heavy deposits, want capped at 3", got)
	}
}
