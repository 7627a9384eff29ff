// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and an event queue ordered by
// (time, sequence number). Simulated concurrent activities are written as
// ordinary blocking Go code inside processes (see Proc); the kernel runs
// exactly one process at a time and advances virtual time only between
// events, so a simulation is fully deterministic and runs as fast as the
// host CPU allows regardless of how much virtual time it covers.
//
// A 465-minute cloud experiment therefore completes in milliseconds of wall
// time and produces bit-identical results on every run, which is what makes
// the reproduction's latency and cost tables trustworthy.
//
// Internally the scheduler keeps two structures: a FIFO run queue for
// events due at exactly the current time (the After(0) wake-up path every
// synchronization primitive uses) and an index-based 4-ary min-heap of
// event values for future events. Both recycle their storage, so the
// steady-state schedule/dispatch cycle performs zero heap allocations; see
// DESIGN.md "Kernel internals" for the ordering invariants.
package sim

import (
	"fmt"
	"time"
	"unsafe"
)

// Time is virtual time measured as an offset from the simulation start.
type Time = time.Duration

// killedPanic is thrown inside a parked process when the kernel shuts down.
type killedPanic struct{}

// procPanic wraps a panic raised by user code inside a process so Run can
// re-raise it on the caller's goroutine with context attached.
type procPanic struct {
	proc string
	val  any
}

func (p procPanic) String() string {
	return fmt.Sprintf("sim: process %q panicked: %v", p.proc, p.val)
}

// rqEntry is a run-queue entry: an event due at the current virtual time.
// Its timestamp is implicit (always Now); seq alone orders it against heap
// events that share the timestamp.
type rqEntry struct {
	seq  uint64
	fn   func()
	proc *Proc
}

// Kernel is a discrete-event simulation engine. The zero value is not usable;
// construct one with NewKernel. A Kernel must be used from a single goroutine
// (its own processes are internally serialized).
type Kernel struct {
	now Time
	seq uint64

	// events holds future events (at > now at push time) plus all
	// cancellable timers; rq holds events due at exactly now, in seq
	// order. Together they form one logical queue totally ordered by
	// (at, seq) — see nextIsRQ.
	events eventHeap
	rq     Ring[rqEntry]

	// slabs holds every Proc ever created, carved in spawn order from
	// fixed procSlab-entry slabs that are never reallocated, so Close can
	// unwind the live ones and return every coroutine to the pool.
	// freeProcs heads the LIFO list, linked through Trip.Ref, of the slots
	// whose processes have ended, awaiting the next Spawn or SpawnStep.
	// Recycling them makes steady-state spawning allocation-free: no Proc
	// or coroutine per process on per-request workloads.
	slabs     [][]Proc
	freeProcs *Proc
	// closed is also the kill flag: a process Close resumes finds it set
	// and unwinds instead of continuing.
	closed bool

	// failure holds a panic captured from a process; Run re-raises it.
	failure *procPanic

	// until is the active RunUntil bound (negative = unbounded), read by
	// the Park self-handoff fast path so it never advances the clock past
	// the bound the kernel loop is enforcing.
	until Time

	liveProcs int
	// stepping is the process whose step the kernel loop is running, so a
	// panic in it fails the run as that process's panic.
	stepping *Proc

	sched Sched
}

// Sched is a kernel's dispatch record: plain counts of what the scheduler
// did, plus a running hash over the (at, seq) key of every event it
// consumed, in consumption order. Two runs with equal hashes consumed the
// same events in the same order; the hash does not see what kind of event
// each was, so a change that turns one kind of wake-up into another keeps
// it.
type Sched struct {
	// Dispatched counts events the kernel loop popped: callbacks, process
	// resumes and steps alike.
	Dispatched uint64
	// Resumes counts coroutine switches into a process body by the kernel
	// loop.
	Resumes uint64
	// Handoffs counts wake-ups a parking process consumed itself, without
	// a switch (see Proc.Park).
	Handoffs uint64
	// Steps counts steps run, by the kernel loop or inside Park.
	Steps uint64
	// Spawns counts processes started; Coroutines counts those that found
	// the cross-kernel coroutine pool empty and created a coroutine: the
	// pool's misses, a host-side cost that depends on which kernels ran
	// before and alongside this one, never on the seed.
	Spawns, Coroutines uint64
	// HeapPops counts events taken from the future-event heap, by the
	// kernel loop or a self-handoff; the rest of Dispatched+Handoffs came
	// from the run queue.
	HeapPops uint64
	// HeapLenSum and HeapMax are the sum and the maximum of the heap's
	// length, the popped event included, at each heap pop:
	// HeapLenSum/HeapPops is its mean length at a pop.
	HeapLenSum, HeapMax uint64
	// PeakLive is the most processes live at once.
	PeakLive uint64
	// Hash folds in the (at, seq) of every consumed event, whether the
	// kernel loop or a self-handoff consumed it.
	Hash uint64
}

// Sched returns the kernel's dispatch counters and schedule hash so far.
func (k *Kernel) Sched() Sched { return k.sched }

// consumed folds one consumed event's key into the schedule hash: an
// xor-multiply-add chain, so the hash depends on the order of the keys.
func (s *Sched) consumed(at Time, seq uint64) {
	s.Hash = (s.Hash^seq)*0x9e3779b97f4a7c15 + uint64(at)
}

// NewKernel returns a kernel with the clock at zero and no pending events.
func NewKernel() *Kernel {
	return &Kernel{
		events: newEventHeap(),
		until:  -1,
	}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Pending reports the number of scheduled events (stopped timers leave the
// queue immediately and are not counted).
func (k *Kernel) Pending() int { return k.events.len() + k.rq.Len() }

// LiveProcs reports the number of processes that have been spawned and have
// not yet exited (parked processes count as live).
func (k *Kernel) LiveProcs() int { return k.liveProcs }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t < Now) runs the event at the current time, preserving program order.
// Scheduling on a closed kernel panics, like Spawn.
func (k *Kernel) At(t Time, fn func()) {
	if k.closed {
		panic("sim: At on closed kernel")
	}
	k.schedule(t, fn, nil)
}

// After schedules fn to run d after the current virtual time. Scheduling on
// a closed kernel panics, like Spawn.
func (k *Kernel) After(d Time, fn func()) {
	if k.closed {
		panic("sim: After on closed kernel")
	}
	k.schedule(k.now+d, fn, nil)
}

// schedule enqueues a (fn XOR proc) event at time t: due-now events take the
// O(1) run-queue fast path, future events go to the heap.
func (k *Kernel) schedule(t Time, fn func(), proc *Proc) {
	k.seq++
	if t <= k.now {
		k.rq.Push(rqEntry{seq: k.seq, fn: fn, proc: proc})
		return
	}
	k.events.push(t, k.seq, fn, proc)
}

// Spawn creates a process running fn and schedules it to start at the
// current virtual time. It returns immediately; the process body executes
// when the kernel loop reaches the start event.
func (k *Kernel) Spawn(name string, fn func(*Proc)) *Proc {
	p := k.slot(name)
	if p.co == nil {
		p.co = adoptCoro(p, &k.sched)
	}
	// A reused slot's coroutine has yielded between assignments.
	p.co.body = fn
	k.schedule(k.now, nil, p)
	return p
}

// SpawnStep creates a stepped process: one with no body, which never holds
// or resumes a coroutine. Its start event runs step at the current virtual
// time, in FIFO order with Spawn's starts. Each step ends the way a step
// of a blocking call does (see Proc.WakeAfter), except that every wake-up
// must carry a step, there being no body to resume; the chain's last step
// calls p.Exit instead. Close runs nothing of a stepped process: its
// pending wake-up is dropped with the kernel.
func (k *Kernel) SpawnStep(name string, step func(*Proc)) *Proc {
	if step == nil {
		panic("sim: SpawnStep with nil step")
	}
	p := k.slot(name)
	p.step = step
	k.schedule(k.now, nil, p)
	return p
}

// slot takes a Proc for a new process: the most recently freed slot, or a
// fresh one.
func (k *Kernel) slot(name string) *Proc {
	if k.closed {
		panic("sim: Spawn on closed kernel")
	}
	p := k.freeProcs
	if p != nil {
		k.freeProcs, _ = p.Trip.Ref.(*Proc)
		p.Trip = Trip{}
	} else {
		p = k.carve()
	}
	k.sched.Spawns++
	k.liveProcs++
	k.sched.PeakLive = max(k.sched.PeakLive, uint64(k.liveProcs))
	p.name = name
	return p
}

// free puts an ended process's slot at the head of the free list.
func (k *Kernel) free(p *Proc) {
	p.Trip = Trip{Ref: k.freeProcs}
	k.freeProcs = p
}

// procSlab is the number of Procs a kernel allocates at once: as many as
// fit, with the 8-byte header the Go allocator puts on a pointer-holding
// object over 512 B, in the 4,096-byte size class. One more would spill the
// slab into the 4,864-byte class.
const procSlab = (4096 - 8) / int(unsafe.Sizeof(Proc{}))

// carve returns a fresh Proc slot from the last slab, opening a new slab
// when it is full. A slab is never reallocated, so a *Proc stays valid for
// the kernel's lifetime.
func (k *Kernel) carve() *Proc {
	n := len(k.slabs)
	if n == 0 || len(k.slabs[n-1]) == procSlab {
		k.slabs = append(k.slabs, make([]Proc, 0, procSlab))
		n++
	}
	s := &k.slabs[n-1]
	*s = append(*s, Proc{k: k})
	return &(*s)[len(*s)-1]
}

// Run executes events until the queue is empty, then returns the final
// virtual time. Processes still parked at that point are deadlocked (they
// wait on conditions nothing will fire); they remain parked and are reaped
// by Close.
func (k *Kernel) Run() Time {
	return k.RunUntil(-1)
}

// nextIsRQ reports whether the next event in (at, seq) order is the run
// queue head rather than the heap minimum. Both queues must be consulted:
// the heap may hold events at the current time (cancellable timers, or
// wake-ups scheduled before the clock reached their timestamp) whose seq
// precedes the run-queue head's.
func (k *Kernel) nextIsRQ() bool {
	if k.events.len() == 0 {
		return true
	}
	top := &k.events.order[0]
	return top.at > k.now || top.seq > k.rq.Peek().seq
}

// popEvent removes the heap's earliest event, which is due now, counts the
// pop and returns the event's payload.
func (k *Kernel) popEvent() (fn func(), proc *Proc) {
	n := uint64(k.events.len())
	k.sched.HeapPops++
	k.sched.HeapLenSum += n
	k.sched.HeapMax = max(k.sched.HeapMax, n)
	return k.events.pop()
}

// RunUntil executes events with timestamps <= until (all events if until is
// negative) and returns the virtual time reached. If the queue empties first
// and until is non-negative, the clock still advances to until.
func (k *Kernel) RunUntil(until Time) Time {
	if k.closed {
		panic("sim: Run on closed kernel")
	}
	defer func() {
		if p := k.stepping; p != nil {
			k.stepping = nil
			panic(procPanic{proc: p.name, val: recover()}.String())
		}
	}()
	k.until = until
	for {
		var fn func()
		var proc *Proc
		var seq uint64
		if k.rq.Len() > 0 && k.nextIsRQ() {
			// Run-queue entries are due at the current time.
			if until >= 0 && k.now > until {
				break
			}
			e := k.rq.Pop()
			fn, proc, seq = e.fn, e.proc, e.seq
		} else if k.events.len() > 0 {
			e := &k.events.order[0]
			if until >= 0 && e.at > until {
				break
			}
			k.now, seq = e.at, e.seq
			fn, proc = k.popEvent()
		} else {
			break
		}
		k.sched.Dispatched++
		k.sched.consumed(k.now, seq)
		if proc == nil {
			fn()
		} else if step := proc.step; step != nil {
			proc.step = nil
			k.sched.Steps++
			k.stepping = proc
			step(proc)
			k.stepping = nil
		} else if c := proc.co; c != nil && c.body != nil {
			// Runs the process until it parks or its body exits.
			k.sched.Resumes++
			c.next()
		} else {
			panic(procPanic{proc: proc.name, val: "stepped process woke without a step"}.String())
		}
		if k.failure != nil {
			f := *k.failure
			k.failure = nil
			panic(f.String())
		}
	}
	if until >= 0 && k.now < until {
		k.now = until
	}
	return k.now
}

// Close tears down the kernel. Each live process with a body is resumed
// once: a parked body unwinds (its defers included) and one that never
// started is retired without running. The caller waits while each process
// unwinds, one at a time, so all of it is finished when Close returns;
// every coroutine then goes back to the cross-kernel pool. A stepped
// process runs nothing: its pending wake-up, wherever it waits, is dropped.
// After Close the kernel cannot be used and has no live processes. Close
// is idempotent.
func (k *Kernel) Close() {
	if k.closed {
		return
	}
	k.closed = true
	for _, s := range k.slabs {
		for i := range s {
			p := &s[i]
			if p.co == nil {
				continue
			}
			if p.co.body != nil {
				p.co.next()
			}
			p.co.release()
			p.co = nil
		}
	}
	k.slabs = nil
	k.freeProcs = nil
	k.liveProcs = 0
}
