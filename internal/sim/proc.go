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
// kernel's free list for the next Spawn to reuse (with a fresh name and
// ID). Spawning therefore allocates nothing in steady state — the dominant
// cost of per-request process workloads such as open-loop load generators.
type Proc struct {
	k    *Kernel
	name string
	id   uint64
	co   *coro
	// body is the current assignment, set by Spawn and cleared on exit.
	body func(*Proc)
}

// Name returns the name given to Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns a kernel-unique process identifier (1-based, in spawn order).
func (p *Proc) ID() uint64 { return p.id }

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

// adoptCoro binds p to a pooled coroutine, creating one if the pool is empty.
func adoptCoro(p *Proc) *coro {
	var c *coro
	coroPool.mu.Lock()
	if n := len(coroPool.free); n > 0 {
		c = coroPool.free[n-1]
		coroPool.free[n-1] = nil
		coroPool.free = coroPool.free[:n-1]
	}
	coroPool.mu.Unlock()
	if c == nil {
		c = &coro{}
		c.next, _ = iter.Pull(c.run)
	}
	c.p = p
	return c
}

// release returns c to the pool, dropping its Proc so the pool does not
// keep a closed kernel reachable.
func (c *coro) release() {
	c.p = nil
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
		p.body = nil
		k.freeProcs = append(k.freeProcs, p)
	}()
	// Close resumes a process that never started only to retire it.
	if !k.closed {
		p.body(p)
	}
}

// park returns control to the scheduler and blocks until this process is
// resumed. On a closed kernel it panics with killedPanic instead, which
// unwinds the body (defers included) back to cycle.
//
// Self-handoff fast path: when the next due event in the kernel's (time,
// seq) order is this process's own wake-up, park consumes it inline and
// returns without switching at all — exactly the event the kernel loop
// would have picked next, so the event order (and every golden trace) is
// unchanged. The common case for Sleep when no other event lands inside the
// sleep interval.
func (p *Proc) park() {
	k := p.k
	if k.rq.len() > 0 {
		if k.nextIsRQ() {
			// Run-queue head is due at the current time; no clock
			// advance and the RunUntil bound already admits now.
			if e := k.rq.peek(); e.proc == p {
				k.rq.pop()
				return
			}
		}
	} else if k.events.len() > 0 {
		s := k.events.min()
		e := &k.events.arena[s]
		if e.proc == p && (k.until < 0 || e.at <= k.until) {
			k.now = e.at
			k.events.removeAt(0)
			return
		}
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
	k.rq.push(rqEntry{seq: k.seq, proc: p})
}

// wakeAt schedules this process to resume at absolute time t.
func (p *Proc) wakeAt(t Time) {
	p.k.schedule(t, nil, p)
}

// Sleep suspends the process for d of virtual time. Negative durations sleep
// zero time (but still yield to other ready processes).
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		d = 0
	}
	p.wakeAt(p.k.now + d)
	p.park()
}

// Yield lets every other process that is ready at the current virtual time
// run before this one continues.
func (p *Proc) Yield() { p.Sleep(0) }

// Spawn starts a child process; sugar for p.Kernel().Spawn.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc {
	return p.k.Spawn(name, fn)
}
