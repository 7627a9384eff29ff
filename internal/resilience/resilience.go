// Package resilience is the client-side failure-handling layer for the
// simulated cloud: per-call deadlines, capped exponential backoff with
// decorrelated jitter, token-bucket retry budgets, per-endpoint circuit
// breakers, and optional tail-latency hedging. The chaos engine (PR 9) can
// break the platform; this package decides what a caller does about it —
// and, configured naively, how callers turn a transient slowdown into a
// metastable retry storm (the retrystorm experiment).
//
// Everything here is deterministic: backoff jitter comes from a seeded
// simrand stream owned by the caller, deadlines are cancellable sim.Timers,
// and breaker/budget state is pure arithmetic over simulated time — a run
// is bit-identical at any sweep worker count. A call runs as kernel steps
// (Client.DoStep): the caller's process waits out backoffs and attempts
// with no coroutine of its own, and each attempt is a stepped process of
// its own. The decision path (backoff
// draw, budget take, breaker allow/record) allocates nothing in steady
// state (CI-gated via BenchmarkRetryDecision): a call's state and the
// client's two timers live in the Client itself.
//
// A Client belongs to one calling process: it executes one call at a time,
// like a connection-pool handle. Breakers and budgets are designed to be
// shared between clients talking to the same endpoints (process-wide state,
// the way a service mesh sidecar holds it), and a Stats sink can aggregate
// outcome counters across a whole client population.
package resilience

import (
	"errors"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// ErrDeadline is returned when an attempt's deadline expires before the
// operation completes. The abandoned attempt keeps running at the server —
// it occupies a service slot and bills like any other request, which is
// exactly the wasted work that lets naive retries amplify an outage.
var ErrDeadline = errors.New("resilience: deadline exceeded")

// ErrBreakerOpen is returned when the endpoint's circuit breaker is open:
// the call fails fast without touching the network.
var ErrBreakerOpen = errors.New("resilience: circuit open")

// Stats counts call outcomes. Share one sink across clients (SetStatsSink)
// to aggregate a population; counters are plain int64s on the kernel's
// single timeline, so no atomics are needed.
type Stats struct {
	// Calls counts DoStep invocations.
	Calls int64
	// Retries counts re-attempts after a failure; Timeouts counts attempts
	// abandoned at their deadline; Hedges counts speculative second
	// requests launched by the hedging timer.
	Retries, Timeouts, Hedges int64
	// ShortCircuits counts calls rejected by an open breaker without an
	// attempt; BudgetDenied counts retries foregone because the retry
	// budget was empty.
	ShortCircuits, BudgetDenied int64
}

// Config parameterizes a Client's retry policy. The zero value is a plain
// pass-through: one attempt, no deadline, no backoff, no hedging.
type Config struct {
	// Attempts is the total number of tries per call (first attempt
	// included); values below 1 mean 1.
	Attempts int
	// Deadline bounds each attempt; 0 disables. An expired attempt returns
	// ErrDeadline to the caller but keeps running (and billing) at the
	// server.
	Deadline time.Duration
	// BaseBackoff enables sleeping between attempts: each retry waits a
	// decorrelated-jitter draw in [BaseBackoff, min(MaxBackoff, 3×previous)]
	// (see Backoff). 0 retries immediately — the naive policy.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff growth; 0 with BaseBackoff > 0 means
	// 16×BaseBackoff.
	MaxBackoff time.Duration
	// HedgeAfter, when positive, launches a speculative second attempt if
	// the first has not completed after this long (a p99-class delay); the
	// first completion wins and the loser keeps running — still billed.
	HedgeAfter time.Duration
}

// Client executes calls under a retry policy for one calling process. Not
// safe for concurrent calls: a Client runs one DoStep at a time, like the
// per-worker handle of a connection pool. Budget, breakers, and the stats
// sink may be shared across clients.
type Client struct {
	rng    *simrand.RNG
	cfg    Config
	budget *Budget
	brs    []*Breaker
	stats  *Stats
	own    Stats

	// The call in progress, kept here between its steps (see DoStep):
	// caller is the calling process, ep the endpoint, err the last
	// attempt's outcome (nil before the first ends) and prev the last
	// backoff. att holds the processes of the current attempt and of its
	// hedge until one of them, or the deadline, decides the attempt; only
	// their outcomes count.
	op      func(*sim.Proc)
	then    func(*sim.Proc, error)
	caller  *sim.Proc
	att     [2]*sim.Proc
	attempt int32
	ep      int32
	prev    time.Duration
	err     error

	deadlineT sim.Timer
	hedgeT    sim.Timer
}

// NewClient creates a client on kernel k drawing backoff jitter from rng.
func NewClient(k *sim.Kernel, rng *simrand.RNG, cfg Config) *Client {
	if cfg.Attempts < 1 {
		cfg.Attempts = 1
	}
	if cfg.BaseBackoff > 0 && cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 16 * cfg.BaseBackoff
	}
	c := &Client{rng: rng, cfg: cfg}
	c.stats = &c.own
	c.deadlineT.Init(k, func() {
		if c.att[0] != nil {
			c.decide(ErrDeadline)
		}
	})
	c.hedgeT.Init(k, func() {
		if c.att[0] != nil {
			c.stats.Hedges++
			c.att[1] = k.SpawnStep("resilience-hedge", c.op)
		}
	})
	return c
}

// SetBudget attaches a (possibly shared) retry budget; nil detaches.
func (c *Client) SetBudget(b *Budget) { c.budget = b }

// SetBreakers attaches the per-endpoint breaker table, indexed by the
// endpoint argument of DoStep; endpoints outside the slice have no
// breaker. The slice is typically shared by every client of a service.
func (c *Client) SetBreakers(brs []*Breaker) { c.brs = brs }

// SetStatsSink redirects outcome counters to a shared sink (nil restores
// the client's private counters).
func (c *Client) SetStatsSink(s *Stats) {
	if s == nil {
		s = &c.own
	}
	c.stats = s
}

// Stats returns the current counter values of the client's sink.
func (c *Client) Stats() Stats { return *c.stats }

// DoStep runs one call under the client's policy against the given
// endpoint (index into the breaker table; pass a negative endpoint to skip
// breaker consultation), from a step of the calling process p (see
// sim.Proc.WakeAfter): it must not park, and it returns at once. The call
// ends in then(p, err), at the event where its last attempt's outcome is
// known: err is nil on the first successful attempt, ErrBreakerOpen on a
// fast-failed call, or the last attempt's error (ErrDeadline for a
// timeout). Until then the call owns p's pending wake-up and p.Trip.
//
// op is an attempt, in step form: a step that starts the attempt on the
// process it is handed and must not park, and whose last step calls
// c.Done on that process with the attempt's outcome. Every attempt runs in
// a stepped child process of its own, so a deadline can abandon it, and op
// must use the process it is handed, not the caller's. op runs at attempt
// start (first attempt, retries and hedges alike), while the call is in
// progress, so whatever op reads from caller-owned state at its start is
// the state of the call that launched it: a caller may reuse one op for
// every call and rewrite the state it reads between calls, and an attempt
// abandoned at its deadline keeps the values it copied at its start.
//
// Every draw and schedule call happens at the event where a blocking
// retry loop (sleeping its backoff, parking on the attempt) makes it.
func (c *Client) DoStep(p *sim.Proc, endpoint int, op func(*sim.Proc), then func(*sim.Proc, error)) {
	if c.then != nil {
		panic("resilience: DoStep on a client whose call is in progress")
	}
	c.ep = -1
	if endpoint >= 0 && endpoint < len(c.brs) {
		c.ep = int32(endpoint)
	}
	c.op, c.then, c.caller = op, then, p
	c.attempt, c.prev, c.err = 0, c.cfg.BaseBackoff, nil
	c.stats.Calls++
	if c.budget != nil {
		c.budget.Deposit()
	}
	c.launch(p)
}

// Done ends an attempt that op started: its last step calls it on the
// attempt's process with the attempt's outcome. The first outcome of the
// current attempt (the attempt itself or its hedge) that beats the
// deadline decides it; a late finisher's outcome is dropped. A child
// attempt's process exits here.
func (c *Client) Done(p *sim.Proc, err error) {
	if p == c.att[0] || p == c.att[1] {
		c.decide(err)
	}
	p.Exit()
}

// decide ends the current attempt with err and wakes the caller into
// attemptEnded.
func (c *Client) decide(err error) {
	c.att = [2]*sim.Proc{}
	c.err = err
	c.caller.WakeAfter(0, attemptEnded)
}

// breaker returns the call's endpoint breaker, or nil.
func (c *Client) breaker() *Breaker {
	if c.ep < 0 {
		return nil
	}
	return c.brs[c.ep]
}

// launch starts the current attempt unless the endpoint's breaker is open:
// in a child process raced against the deadline and hedge timers, with the
// caller waiting for the first completion (either attempt, or the
// deadline) to wake it.
func (c *Client) launch(p *sim.Proc) {
	if br := c.breaker(); br != nil && !br.Allow(p.Now()) {
		// Fail fast: an open breaker rejects without burning a backoff
		// cycle — the cooldown timer, not the retry loop, decides when
		// the endpoint is probed again.
		c.stats.ShortCircuits++
		if c.err == nil {
			c.err = ErrBreakerOpen
		}
		c.end(p)
		return
	}
	c.att = [2]*sim.Proc{p.Kernel().SpawnStep("resilience-attempt", c.op)}
	if c.cfg.Deadline > 0 {
		c.deadlineT.Reset(c.cfg.Deadline)
	}
	if c.cfg.HedgeAfter > 0 && (c.cfg.Deadline <= 0 || c.cfg.HedgeAfter < c.cfg.Deadline) {
		c.hedgeT.Reset(c.cfg.HedgeAfter)
	}
	p.Trip = sim.Trip{Ref: c}
}

// attemptEnded is the caller's step once the attempt, its hedge or the
// deadline has decided the attempt.
func attemptEnded(p *sim.Proc) {
	c := p.Trip.Ref.(*Client)
	p.Trip = sim.Trip{}
	c.deadlineT.Stop()
	c.hedgeT.Stop()
	c.settle(p, c.err)
}

// settle takes the current attempt's outcome: it ends the call, or starts
// the next attempt, after a backoff when one is configured.
func (c *Client) settle(p *sim.Proc, err error) {
	if br := c.breaker(); br != nil {
		br.Record(p.Now(), err == nil)
	}
	c.err = err
	if err == nil {
		c.end(p)
		return
	}
	if errors.Is(err, ErrDeadline) {
		c.stats.Timeouts++
	}
	c.attempt++
	if int(c.attempt) >= c.cfg.Attempts {
		c.end(p)
		return
	}
	if c.budget != nil && !c.budget.TryTake() {
		c.stats.BudgetDenied++
		c.end(p)
		return
	}
	c.stats.Retries++
	if c.cfg.BaseBackoff > 0 {
		d := Backoff(c.rng, c.cfg.BaseBackoff, c.cfg.MaxBackoff, c.prev)
		c.prev = d
		p.Trip = sim.Trip{Ref: c}
		p.WakeAfter(d, backedOff)
		return
	}
	c.launch(p)
}

// backedOff is the caller's step at the end of a backoff.
func backedOff(p *sim.Proc) {
	c := p.Trip.Ref.(*Client)
	p.Trip = sim.Trip{}
	c.launch(p)
}

// end hands the call's outcome to its continuation; the client is free for
// the next call from then on.
func (c *Client) end(p *sim.Proc) {
	then := c.then
	c.op, c.then, c.caller = nil, nil, nil
	then(p, c.err)
}

// Backoff draws one decorrelated-jitter backoff: uniform in
// [base, min(cap, 3×prev)], after the AWS architecture blog's
// "decorrelated jitter" schedule. Pass the previous draw (or base for the
// first retry) as prev; successive draws random-walk upward until the cap
// while staying spread out, which is what keeps a thundering herd of
// synchronized retriers from re-synchronizing.
func Backoff(rng *simrand.RNG, base, cap_, prev time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	hi := 3 * prev
	if cap_ > 0 && hi > cap_ {
		hi = cap_
	}
	if hi <= base {
		return base
	}
	return base + time.Duration(rng.Float64()*float64(hi-base))
}
