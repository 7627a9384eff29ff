package resilience

import (
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

var errBoom = errors.New("boom")

func TestZeroConfigPassThrough(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{})
	attempts := 0
	k.Spawn("test", func(p *sim.Proc) {
		if err := c.Do(p, -1, func(q *sim.Proc) error {
			attempts++
			q.Sleep(time.Millisecond)
			return nil
		}); err != nil {
			t.Errorf("Do = %v, want nil", err)
		}
		if attempts != 1 {
			t.Errorf("op ran %d times, want 1", attempts)
		}
		if err := c.Do(p, -1, func(*sim.Proc) error {
			attempts++
			return errBoom
		}); err != errBoom {
			t.Errorf("Do = %v, want errBoom", err)
		}
	})
	k.Run()
	st := c.Stats()
	if st.Calls != 2 || attempts != 2 || st.Retries != 0 {
		t.Errorf("stats = %+v after %d attempts, want 2 calls, 2 attempts, 0 retries", st, attempts)
	}
}

func TestRetriesUntilSuccess(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Attempts: 4, BaseBackoff: 10 * time.Millisecond})
	var elapsed time.Duration
	attempts := 0
	k.Spawn("test", func(p *sim.Proc) {
		fails := 2
		start := p.Now()
		err := c.Do(p, -1, func(*sim.Proc) error {
			attempts++
			if fails > 0 {
				fails--
				return errBoom
			}
			return nil
		})
		elapsed = p.Now() - start
		if err != nil {
			t.Errorf("Do = %v, want nil after retries", err)
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
	var tookMs time.Duration
	k.Spawn("test", func(p *sim.Proc) {
		start := p.Now()
		err := c.Do(p, -1, func(q *sim.Proc) error {
			q.Sleep(time.Second) // far past the deadline
			finished++
			return nil
		})
		tookMs = p.Now() - start
		if !errors.Is(err, ErrDeadline) {
			t.Errorf("Do = %v, want ErrDeadline", err)
		}
	})
	k.Run()
	if tookMs != 50*time.Millisecond {
		t.Errorf("caller blocked %v, want exactly the 50ms deadline", tookMs)
	}
	// The abandoned attempt still runs to completion on the kernel: that is
	// the billed-wasted-work semantics the retry storm depends on.
	if finished != 1 {
		t.Errorf("abandoned op finished %d times, want 1 (keeps running server-side)", finished)
	}
	if st := c.Stats(); st.Timeouts != 1 {
		t.Errorf("Timeouts = %d, want 1", st.Timeouts)
	}
}

// TestAbandonedAttemptKeepsArgumentsReadAtStart pins the contract that
// lets a caller reuse one op closure across calls: op is invoked at
// attempt start, while the caller is parked in Do, so an op that copies
// caller-owned state at entry keeps that copy even after a timed-out call
// returns and the caller rewrites the state for its next call.
func TestAbandonedAttemptKeepsArgumentsReadAtStart(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Attempts: 1, Deadline: 10 * time.Millisecond})
	arg := 0
	var recorded []int
	op := func(q *sim.Proc) error {
		mine := arg
		q.Sleep(50 * time.Millisecond) // far past the deadline
		recorded = append(recorded, mine)
		return nil
	}
	k.Spawn("test", func(p *sim.Proc) {
		arg = 1
		if err := c.Do(p, -1, op); !errors.Is(err, ErrDeadline) {
			t.Errorf("first Do = %v, want ErrDeadline", err)
		}
		arg = 2 // the first attempt is still sleeping
		if err := c.Do(p, -1, op); !errors.Is(err, ErrDeadline) {
			t.Errorf("second Do = %v, want ErrDeadline", err)
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
	k.Spawn("test", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := c.Do(p, -1, func(q *sim.Proc) error {
				q.Sleep(time.Millisecond)
				return nil
			}); err != nil {
				t.Errorf("call %d: Do = %v, want nil", i, err)
			}
		}
	})
	k.Run()
	if st := c.Stats(); st.Timeouts != 0 || st.Calls != 3 {
		t.Errorf("stats = %+v, want 3 clean calls, 0 timeouts", st)
	}
}

func TestHedgeFirstCompletionWins(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{HedgeAfter: 20 * time.Millisecond})
	launches := 0
	var took time.Duration
	k.Spawn("test", func(p *sim.Proc) {
		start := p.Now()
		err := c.Do(p, -1, func(q *sim.Proc) error {
			launches++
			if launches == 1 {
				q.Sleep(time.Second) // slow primary
			} else {
				q.Sleep(5 * time.Millisecond) // fast hedge
			}
			return nil
		})
		took = p.Now() - start
		if err != nil {
			t.Errorf("Do = %v, want nil (hedge wins)", err)
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
	k.Spawn("test", func(p *sim.Proc) {
		_ = c.Do(p, -1, func(q *sim.Proc) error {
			launches++
			q.Sleep(time.Millisecond)
			return nil
		})
	})
	k.Run()
	if launches != 1 {
		t.Errorf("launches = %d, want 1 (no hedge for a fast primary)", launches)
	}
	if st := c.Stats(); st.Hedges != 0 {
		t.Errorf("Hedges = %d, want 0", st.Hedges)
	}
}

func TestBudgetCapsRetries(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{Attempts: 3})
	c.SetBudget(NewBudget(0.1, 2))
	k.Spawn("test", func(p *sim.Proc) {
		// Every call fails; with burst 2 and ratio 0.1 only the first few
		// retries are granted, then the budget pins attempts ~= calls.
		for i := 0; i < 50; i++ {
			_ = c.Do(p, -1, func(*sim.Proc) error { return errBoom })
		}
	})
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
	k.Spawn("test", func(p *sim.Proc) {
		op := func(*sim.Proc) error { ops++; return errBoom }
		for i := 0; i < 5; i++ {
			last = c.Do(p, 0, op)
		}
	})
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
