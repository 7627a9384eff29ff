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
// is bit-identical at any sweep worker count. The decision path (backoff
// draw, budget take, breaker allow/record) allocates nothing in steady
// state (CI-gated via BenchmarkRetryDecision), and a Client's call scratch
// (timers, signal, attempt body) is allocated once and reused for the
// client's lifetime, its timers inside the Client itself.
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
	// Calls counts Do invocations.
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
// safe for concurrent calls: a Client runs one Do at a time, like the
// per-worker handle of a connection pool. Budget, breakers, and the stats
// sink may be shared across clients.
//
// Do invokes op at attempt start (first attempt, retries and hedges
// alike), while the calling process is parked in Do (or, with neither a
// deadline nor hedging, inline on it). Whatever op reads from caller-owned
// state before its first blocking call is therefore the state of the call
// that launched it: a caller may reuse one op closure for every call and
// rewrite the state it reads between calls, and an attempt abandoned at
// its deadline keeps the values it started with.
type Client struct {
	rng    *simrand.RNG
	cfg    Config
	budget *Budget
	brs    []*Breaker
	stats  *Stats
	own    Stats

	// Per-call scratch, allocated once and reused: the attempt body reads
	// the op/gen fields at start time (the parent is parked for the whole
	// call, so they cannot change underneath it), and a generation counter
	// makes completions of abandoned attempts harmless no-ops. gen and
	// done share a word, which keeps the Client in the 256-byte size class.
	gen       uint32
	done      bool
	op        func(*sim.Proc) error
	err       error
	sig       sim.Signal
	deadlineT sim.Timer
	hedgeT    sim.Timer
	body      func(*sim.Proc)
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
	c.body = func(cp *sim.Proc) {
		// Read the call state at start: the parent is parked in sig.Wait
		// for the whole call, so gen/op are stable until it resumes.
		g := c.gen
		err := c.op(cp)
		if g == c.gen && !c.done {
			c.done = true
			c.err = err
			c.sig.Fire()
		}
	}
	c.deadlineT.Init(k, func() {
		if !c.done {
			c.done = true
			c.err = ErrDeadline
			c.sig.Fire()
		}
	})
	c.hedgeT.Init(k, func() {
		if !c.done {
			c.stats.Hedges++
			k.Spawn("resilience-hedge", c.body)
		}
	})
	return c
}

// SetBudget attaches a (possibly shared) retry budget; nil detaches.
func (c *Client) SetBudget(b *Budget) { c.budget = b }

// SetBreakers attaches the per-endpoint breaker table, indexed by the
// endpoint argument of Do; endpoints outside the slice have no breaker.
// The slice is typically shared by every client of a service.
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

// Do executes op under the client's policy against the given endpoint
// (index into the breaker table; pass a negative endpoint to skip breaker
// consultation). op runs in a child process so a deadline can abandon it;
// it must use the process it is handed, not the caller's. Returns nil on
// the first successful attempt, ErrBreakerOpen on a fast-failed call, or
// the last attempt's error (ErrDeadline for a timeout).
func (c *Client) Do(p *sim.Proc, endpoint int, op func(*sim.Proc) error) error {
	var br *Breaker
	if endpoint >= 0 && endpoint < len(c.brs) {
		br = c.brs[endpoint]
	}
	c.stats.Calls++
	if c.budget != nil {
		c.budget.Deposit()
	}
	prev := c.cfg.BaseBackoff
	var lastErr error
	for attempt := 0; attempt < c.cfg.Attempts; attempt++ {
		if attempt > 0 {
			if c.budget != nil && !c.budget.TryTake() {
				c.stats.BudgetDenied++
				break
			}
			c.stats.Retries++
			if c.cfg.BaseBackoff > 0 {
				d := Backoff(c.rng, c.cfg.BaseBackoff, c.cfg.MaxBackoff, prev)
				prev = d
				p.Sleep(d)
			}
		}
		if br != nil && !br.Allow(p.Now()) {
			// Fail fast: an open breaker rejects without burning a backoff
			// cycle — the cooldown timer, not the retry loop, decides when
			// the endpoint is probed again.
			c.stats.ShortCircuits++
			if lastErr == nil {
				lastErr = ErrBreakerOpen
			}
			break
		}
		err := c.once(p, op)
		if br != nil {
			br.Record(p.Now(), err == nil)
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrDeadline) {
			c.stats.Timeouts++
		}
		lastErr = err
	}
	return lastErr
}

// once runs a single attempt: inline when no deadline or hedge is
// configured, otherwise in a child process raced against the deadline and
// hedge timers. The first completion (either attempt, or the deadline)
// wins; late finishers see a stale generation and do nothing.
func (c *Client) once(p *sim.Proc, op func(*sim.Proc) error) error {
	if c.cfg.Deadline <= 0 && c.cfg.HedgeAfter <= 0 {
		return op(p)
	}
	c.gen++
	c.op = op
	c.done = false
	c.err = nil
	p.Spawn("resilience-attempt", c.body)
	if c.cfg.Deadline > 0 {
		c.deadlineT.Reset(c.cfg.Deadline)
	}
	if c.cfg.HedgeAfter > 0 && (c.cfg.Deadline <= 0 || c.cfg.HedgeAfter < c.cfg.Deadline) {
		c.hedgeT.Reset(c.cfg.HedgeAfter)
	}
	c.sig.Wait(p)
	c.deadlineT.Stop()
	c.hedgeT.Stop()
	return c.err
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
