package sim

import (
	"iter"
	"sync"
)

// Proc is a simulated process: a coroutine whose execution is serialized by
// the kernel and whose notion of time is the kernel's virtual clock. Process
// bodies are ordinary blocking Go code; blocking operations (Sleep, Queue.Get,
// Signal.Wait, ...) park the process and return control to the kernel.
//
// Exactly one process runs at any instant, so process code may freely read
// and write shared simulation state without locks.
// A Proc's backing coroutine outlives the process body: when the body
// returns, the coroutine yields back to the kernel and the Proc joins the
// kernel's free list for the next Spawn to reuse (with a fresh name).
// Spawning therefore allocates nothing in steady state — the dominant cost
// of per-request process workloads such as open-loop load generators.
//
// A parked process's wake-up may carry a step (see WakeAfter): kernel-side
// work the kernel runs in place of resuming the body, so a blocking call
// whose middle needs no stack switches into the body once, at its end.
type Proc struct {
	k    *Kernel
	name string
	co   *coro
	// step, when set, is what the process's pending wake-up runs in place
	// of resuming the body; the wake-up clears it first.
	step func(*Proc)
	// Trip is scratch for a chain of steps. The kernel never reads it.
	Trip Trip
}

// Trip is the state a chain of steps carries from one step to the next,
// kept in the process so that a chain allocates nothing. Its meaning
// belongs to whoever started the chain.
type Trip struct {
	Ref any
	D   Time
}

// Name returns the name given to Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// coro is a runtime coroutine (iter.Pull) that backs one Proc at a time:
// next resumes it from the kernel loop, yield returns to the kernel loop.
// Coroutines outlive kernels — Close returns each one to coroPool, so the
// next experiment (a benchmark iteration, the next sweep point) spawns onto
// recycled coroutines and pre-grown stacks instead of paying for a fresh
// goroutine, stack growth and Pull closures per process. The pool holds
// coroutines rather than Procs so that a stale *Proc kept past Close never
// aliases a process of a later kernel.
type coro struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	p     *Proc
	// body is p's current assignment, set by Spawn and cleared on exit;
	// nextFree links the kernel's free list while p awaits reuse. They
	// live here rather than in the Proc because every kernel carves its
	// Procs afresh, while coroutines are pooled across kernels.
	body     func(*Proc)
	nextFree *Proc
	// dead is set once the coroutine has ended, which only runtime.Goexit
	// in a body (t.FailNow in a test process) can cause; iter.Pull
	// re-raises the Goexit on the resuming goroutine.
	dead bool
}

// coroPool is the cross-kernel coroutine pool. It is the only simulation
// state shared between goroutines, hence the mutex; traffic is one pop per
// fresh Proc and one push per Proc at Close, not per event. Pooled
// coroutines are never stopped.
var coroPool struct {
	mu   sync.Mutex
	free []*coro
}

// adoptCoro binds p to a pooled coroutine, creating one if the pool is
// empty and counting it in s.
func adoptCoro(p *Proc, s *Sched) *coro {
	var c *coro
	coroPool.mu.Lock()
	if n := len(coroPool.free); n > 0 {
		c = coroPool.free[n-1]
		coroPool.free[n-1] = nil
		coroPool.free = coroPool.free[:n-1]
	}
	coroPool.mu.Unlock()
	if c == nil {
		s.Coroutines++
		c = &coro{}
		c.next, _ = iter.Pull(c.run)
	}
	c.p = p
	return c
}

// release returns c to the pool, dropping its Procs so the pool does not
// keep a closed kernel reachable.
func (c *coro) release() {
	c.p, c.nextFree = nil, nil
	if c.dead {
		return
	}
	coroPool.mu.Lock()
	coroPool.free = append(coroPool.free, c)
	coroPool.mu.Unlock()
}

// run is the coroutine body: one Proc assignment per cycle, yielding to the
// resumer between assignments.
func (c *coro) run(yield func(struct{}) bool) {
	c.yield = yield
	defer func() { c.dead = true }()
	for {
		c.p.cycle()
		yield(struct{}{})
	}
}

// cycle runs the current assignment's body and returns the finished Proc to
// the kernel's free list. A body panic is recorded for RunUntil to re-raise
// on the caller's goroutine; the killedPanic a closed kernel injects into a
// parked body only unwinds it.
func (p *Proc) cycle() {
	k := p.k
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killedPanic); !ok {
				k.failure = &procPanic{proc: p.name, val: r}
			}
		}
		k.liveProcs--
		p.co.body = nil
		p.co.nextFree, k.freeProcs = k.freeProcs, p
	}()
	// Close resumes a process that never started only to retire it.
	if !k.closed {
		p.co.body(p)
	}
}

// Park returns control to the scheduler and blocks until a wake-up that
// carries no step is dispatched for this process; wake-ups that carry a
// step run the step instead (see WakeAfter), so a chain of steps costs the
// body one switch instead of one per wake-up. The caller must have
// arranged a wake-up first. On a closed kernel it panics with killedPanic
// instead, which unwinds the body (defers included) back to cycle.
//
// Self-handoff fast path: when the next due event in the kernel's (time,
// seq) order is this process's own wake-up, Park consumes it inline without
// switching at all — exactly the event the kernel loop would have picked
// next, so the event order (and every golden trace) is unchanged. A wake-up
// without a step returns; one with a step runs the step here, on the body's
// coroutine, and looks again. The common case for Sleep when no other event
// lands inside the sleep interval.
func (p *Proc) Park() {
	k := p.k
	for {
		if k.rq.Len() > 0 {
			// Run-queue head is due at the current time; no clock
			// advance and the RunUntil bound already admits now.
			e := k.rq.Peek()
			if e.proc != p || !k.nextIsRQ() {
				break
			}
			seq := e.seq
			k.sched.Handoffs++
			k.sched.consumed(k.now, seq)
			k.rq.Pop()
		} else if k.events.len() > 0 {
			e := &k.events.arena[k.events.min()]
			at, seq := e.at, e.seq
			if e.proc != p || (k.until >= 0 && at > k.until) {
				break
			}
			k.now = at
			k.sched.Handoffs++
			k.sched.consumed(at, seq)
			k.events.removeAt(0)
		} else {
			break
		}
		step := p.step
		if step == nil {
			return
		}
		p.step = nil
		k.sched.Steps++
		step(p)
	}
	if !k.closed {
		p.co.yield(struct{}{})
		if !k.closed {
			return
		}
	}
	panic(killedPanic{})
}

// wake schedules this process to resume at the current virtual time.
// It must only be called while the process is parked (or about to park,
// within the same event): wake-ups are delivered through the event queue,
// never synchronously, preserving one-process-at-a-time execution.
func (p *Proc) wake() {
	k := p.k
	k.seq++
	k.rq.Push(rqEntry{seq: k.seq, proc: p})
}

// Sleep suspends the process for d of virtual time. Negative durations sleep
// zero time (but still yield to other ready processes). It schedules
// directly rather than through WakeAfter: a running body has no step
// pending, and going through WakeAfter read about 7% slower on
// BenchmarkKernelSleep.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.schedule(p.k.now+d, nil, p)
	p.Park()
}

// WakeAfter schedules the process's next wake-up d from now (negative d
// counts as zero). When it is dispatched, the kernel runs step(p) in place
// of resuming the body, or resumes the body when step is nil; a process has
// at most one wake-up pending. The body calls WakeAfter and then Park to
// start a chain of steps, and each step ends the same way a blocking call
// would have parked: with WakeAfter, carrying the next step or none, or
// with a step form that queues (Resource.AcquireStep, Signal.WaitStep,
// Latch.WaitStep, netsim's Fabric.TransferStep).
//
// A step runs at exactly the event where the body would have resumed, on
// the kernel's side: it may draw, schedule and touch shared state like
// process code, but must not block. A step that panics fails the run as a
// panic of this process.
func (p *Proc) WakeAfter(d Time, step func(*Proc)) {
	if d < 0 {
		d = 0
	}
	p.step = step
	p.k.schedule(p.k.now+d, nil, p)
}

// Redirect replaces the step that the process's pending wake-up runs; with
// a nil step the wake-up resumes the body. It is for the code that
// arranged the wake-up and changes its mind before the wake-up is due: a
// stopped poll loop whose next poll was queued as a step, say. The wake-up
// keeps its place in the event order.
func (p *Proc) Redirect(step func(*Proc)) { p.step = step }

// Yield lets every other process that is ready at the current virtual time
// run before this one continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Spawn starts a child process; sugar for p.Kernel().Spawn.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc {
	return p.k.Spawn(name, fn)
}
