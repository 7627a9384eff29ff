package resilience

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// refClient is the client as blocking process code: the retry loop the
// caller runs parked in Do, sleeping its backoff, with each attempt raced
// against the deadline and hedge timers in a child process that runs op
// as a blocking body. It is the reference Client.DoStep must match event
// for event (FuzzDoStep). Budget, breakers and the stats sink are the
// production ones.
type refClient struct {
	rng    *simrand.RNG
	cfg    Config
	budget *Budget
	brs    []*Breaker
	stats  *Stats

	// Per-call scratch: the attempt body reads op and gen at its start
	// (the caller is parked for the whole call), and a generation counter
	// makes completions of abandoned attempts harmless no-ops.
	gen       uint32
	done      bool
	op        func(*sim.Proc) error
	err       error
	sig       sim.Signal
	deadlineT sim.Timer
	hedgeT    sim.Timer
	body      func(*sim.Proc)
}

// newRefClient is NewClient for the reference, reporting to stats.
func newRefClient(k *sim.Kernel, rng *simrand.RNG, cfg Config, budget *Budget, brs []*Breaker, stats *Stats) *refClient {
	if cfg.Attempts < 1 {
		cfg.Attempts = 1
	}
	if cfg.BaseBackoff > 0 && cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 16 * cfg.BaseBackoff
	}
	c := &refClient{rng: rng, cfg: cfg, budget: budget, brs: brs, stats: stats}
	c.body = func(cp *sim.Proc) {
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

// Do is the blocking retry loop.
func (c *refClient) Do(p *sim.Proc, endpoint int, op func(*sim.Proc) error) error {
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

// once runs a single attempt in a child process raced against the timers.
func (c *refClient) once(p *sim.Proc, op func(*sim.Proc) error) error {
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
