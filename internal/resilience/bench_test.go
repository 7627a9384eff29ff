package resilience

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// BenchmarkRetryDecision exercises the full client decision path — budget
// deposit, breaker consult, a failing attempt under a deadline, one
// jittered backoff draw and wait, breaker record, then a success — in
// steady state. CI gates it at 0 allocs/op: the policy layer must ride the
// kernel's allocation-free step and timer machinery, since it wraps every
// request of every experiment.
func BenchmarkRetryDecision(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	c := NewClient(k, simrand.New(1), Config{
		Attempts:    3,
		Deadline:    10 * time.Millisecond,
		BaseBackoff: 100 * time.Microsecond,
		MaxBackoff:  time.Millisecond,
	})
	c.SetBudget(NewBudget(1, 100))
	// The workload alternates fail/success (exactly 0.5), so trip above it.
	c.SetBreakers([]*Breaker{NewBreaker(BreakerConfig{FailureRate: 0.75})})
	fail := true
	end := func(q *sim.Proc) {
		if fail {
			fail = false
			c.Done(q, errBoom)
			return
		}
		c.Done(q, nil)
	}
	op := func(q *sim.Proc) { q.WakeAfter(10*time.Microsecond, end) }
	// calls runs n calls one after another from a stepped process.
	n := 0
	var call func(*sim.Proc)
	then := func(p *sim.Proc, err error) {
		if err != nil {
			b.Fatalf("DoStep = %v", err)
		}
		n--
		call(p)
	}
	call = func(p *sim.Proc) {
		if n == 0 {
			p.Exit()
			return
		}
		fail = true
		c.DoStep(p, 0, op, then)
	}
	// Warm the proc slots and the client scratch outside the timed region.
	n = 64
	k.SpawnStep("warm", call)
	k.Run()
	b.ReportAllocs()
	b.ResetTimer()
	n = b.N
	k.SpawnStep("bench", call)
	k.Run()
}
