// Package loadgen provides open-loop workload generators for the simulated
// cloud: Poisson and bursty arrival processes that submit requests on their
// own schedule regardless of completion times, which is what exposes
// queueing collapse in fixed-capacity systems and lets autoscaling show its
// value — the paper's "one step forward".
package loadgen

import (
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// Arrivals is an arrival process: Next returns the gap before the next
// request.
type Arrivals interface {
	Next(rng *simrand.RNG) time.Duration
}

// Poisson is a memoryless arrival process at Rate requests/second.
type Poisson struct {
	Rate float64
}

// Next implements Arrivals.
func (p Poisson) Next(rng *simrand.RNG) time.Duration {
	if p.Rate <= 0 {
		panic("loadgen: non-positive rate")
	}
	return time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
}

// Uniform emits requests at a fixed interval (closed-form open loop).
type Uniform struct {
	Interval time.Duration
}

// Next implements Arrivals.
func (u Uniform) Next(*simrand.RNG) time.Duration { return u.Interval }

// Burst alternates between an On process and silence, modeling diurnal or
// flash-crowd traffic. A cycle is OnFor of On-process arrivals followed by
// OffFor of silence; an arrival whose gap crosses the on-window boundary is
// deferred into the next on-window, keeping its offset past the boundary.
type Burst struct {
	On     Arrivals
	OnFor  time.Duration
	OffFor time.Duration
	// elapsed is the position inside the current on-window, always in
	// [0, OnFor).
	elapsed time.Duration
}

// Next implements Arrivals. Every arrival time t satisfies
// t mod (OnFor+OffFor) < OnFor: the off-window is honored exactly once per
// cycle (once per crossed on-window for gaps spanning several cycles), and
// the on-window clock keeps the first post-burst gap instead of swallowing
// it.
func (b *Burst) Next(rng *simrand.RNG) time.Duration {
	if b.OnFor <= 0 {
		panic("loadgen: Burst needs a positive on-window")
	}
	if b.OffFor < 0 {
		// A negative off-window would subtract time once per crossed
		// on-window, silently corrupting the cycle arithmetic.
		panic("loadgen: Burst needs a non-negative off-window")
	}
	gap := b.On.Next(rng)
	b.elapsed += gap
	var off time.Duration
	for b.elapsed >= b.OnFor {
		b.elapsed -= b.OnFor
		off += b.OffFor
	}
	return gap + off
}

// Generator drives an arrival process for a fixed duration, invoking submit
// once per arrival. Submissions run in their own processes (open loop): a
// slow backend does not slow the generator down.
type Generator struct {
	rng      *simrand.RNG
	arrivals Arrivals

	// Submitted counts requests issued.
	Submitted int
}

// New creates a generator.
func New(rng *simrand.RNG, arrivals Arrivals) *Generator {
	return &Generator{rng: rng, arrivals: arrivals}
}

// Run drives the arrival process on k for `for_` of virtual time, calling
// submit(p, seq) in a fresh process per request. It returns a latch that
// releases when the generation window ends (in-flight requests may still be
// running; callers track completion themselves).
//
// The arrivals are a chain of kernel callbacks, not a process, so an
// arrival costs one event and no coroutine switch. The chain schedules the
// events a generator process would, at the same times and in the same
// order: its start at Now, one event per arrival (which spawns the request
// and draws the next gap), and the window's end.
func (g *Generator) Run(k *sim.Kernel, for_ time.Duration, submit func(p *sim.Proc, seq int)) *sim.Latch {
	return g.run(k, for_, submit, false)
}

// RunStep is Run with a stepped process per request (see
// sim.Kernel.SpawnStep): start(p, seq) is the request's first step, which
// must not park, and its chain's last step calls p.Exit. The requests
// hold no coroutine, and every event is Run's: each start runs at the
// event where Run's body would have started, and takes the same seq.
func (g *Generator) RunStep(k *sim.Kernel, for_ time.Duration, start func(p *sim.Proc, seq int)) *sim.Latch {
	return g.run(k, for_, start, true)
}

func (g *Generator) run(k *sim.Kernel, for_ time.Duration, submit func(p *sim.Proc, seq int), stepped bool) *sim.Latch {
	// The start runs at Now, so the window's end is known already.
	r := &genRun{g: g, k: k, submit: submit, stepped: stepped, end: k.Now() + sim.Time(for_)}
	r.step, r.body = r.advance, r.request
	k.At(k.Now(), r.step)
	return &r.done
}

// genRun is one Run's or RunStep's state. Its two funcs are bound once,
// so an arrival allocates nothing.
type genRun struct {
	g       *Generator
	k       *sim.Kernel
	submit  func(p *sim.Proc, seq int)
	stepped bool // requests are stepped processes (RunStep)
	started bool
	end     sim.Time
	next    int // the seq the next request process takes
	step    func()
	body    func(*sim.Proc) // the body, or the first step, of every request
	done    sim.Latch
}

// advance is every event of the chain: the start, each arrival and the
// window's end. Arrivals fall strictly before end, so the clock tells the
// last from the others.
func (r *genRun) advance() {
	k, g := r.k, r.g
	switch {
	case !r.started:
		r.started = true
	case k.Now() >= r.end:
		// The latch promises the end of the generation window, not the
		// last arrival, so timing keyed to it covers the full window.
		r.done.Release()
		return
	case r.stepped:
		g.Submitted++
		k.SpawnStep("req", r.body)
	default:
		g.Submitted++
		k.Spawn("req", r.body)
	}
	gap := g.arrivals.Next(g.rng)
	if k.Now()+sim.Time(gap) >= r.end {
		k.At(r.end, r.step)
		return
	}
	k.After(gap, r.step)
}

// request is the one body, or first step, every request process shares.
// Processes start in spawn order (the kernel's start events are FIFO, for
// Spawn and SpawnStep alike), so the sequence number taken at start is the
// one a per-request closure would have captured at spawn time, without
// allocating a closure per arrival.
func (r *genRun) request(p *sim.Proc) {
	seq := r.next
	r.next++
	r.submit(p, seq)
}
