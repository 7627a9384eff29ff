package sim

// Timer is a cancellable scheduled callback. Unlike a bare After event — a
// dead copy of which would sit in the event queue until its deadline and
// then fire as a no-op — a stopped Timer leaves the queue immediately
// (O(log n) heap removal), so timeout-heavy components (queue long polls,
// visibility timeouts, warm-pool reapers, transfer completion estimates)
// keep the queue free of dead events.
//
// A Timer identifies its event by (arena slot, generation); once the event
// fires or is stopped the slot's generation advances, so Stop and Active on
// a spent handle are safe no-ops even after the slot has been recycled.
type Timer struct {
	k    *Kernel
	fn   func()
	slot int32
	gen  uint32
}

// NewTimer returns an unarmed timer that runs fn when it fires. Arm it with
// Reset or ResetAt. Components that re-arm a deadline repeatedly (the
// warm-pool reaper, the fabric's completion estimate) allocate one Timer up
// front and reuse it for the run's lifetime.
func (k *Kernel) NewTimer(fn func()) *Timer {
	t := new(Timer)
	t.Init(k, fn)
	return t
}

// Init makes t an unarmed timer on k that runs fn when it fires, as
// NewTimer does, in place: for a Timer held by value in the struct that
// re-arms it, which saves the Timer its own allocation. t must not be
// armed.
func (t *Timer) Init(k *Kernel, fn func()) {
	if fn == nil {
		panic("sim: timer with nil fn")
	}
	*t = Timer{k: k, fn: fn, slot: noSlot}
}

// AfterTimer schedules fn to run d after the current virtual time and
// returns a handle that can cancel it. Scheduling on a closed kernel
// panics, like After.
func (k *Kernel) AfterTimer(d Time, fn func()) *Timer {
	if k.closed {
		panic("sim: AfterTimer on closed kernel")
	}
	t := k.NewTimer(fn)
	t.arm(k.now + d)
	return t
}

// arm schedules the timer's event at time at (clamped to the present)
// under a fresh sequence number. Timers always live in the heap, never the
// run queue, because the run queue does not support removal.
func (t *Timer) arm(at Time) {
	k := t.k
	k.seq++
	if at < k.now {
		at = k.now
	}
	t.slot = k.events.push(at, k.seq, t.fn, nil)
	t.gen = k.events.arena[t.slot].gen
}

// Active reports whether the timer is scheduled and has not yet fired.
func (t *Timer) Active() bool {
	return t.slot != noSlot && t.k.events.arena[t.slot].gen == t.gen
}

// Stop cancels the timer, removing its event from the queue. It reports
// whether it prevented the timer from firing; stopping a timer that already
// fired (or was never armed) is a no-op returning false.
func (t *Timer) Stop() bool {
	if !t.Active() {
		return false
	}
	t.k.events.remove(t.slot)
	t.slot = noSlot
	return true
}

// Reset (re)schedules the timer to fire d after the current virtual time,
// as if freshly scheduled: it takes a new sequence number, so its order
// against other events at the same timestamp matches a Stop followed by
// AfterTimer. An active timer is rekeyed in place without allocating.
func (t *Timer) Reset(d Time) { t.ResetAt(t.k.now + d) }

// ResetAt (re)schedules the timer to fire at absolute time at (clamped to
// the present), with the same semantics as Reset.
func (t *Timer) ResetAt(at Time) {
	k := t.k
	if k.closed {
		panic("sim: Timer.Reset on closed kernel")
	}
	if at < k.now {
		at = k.now
	}
	if t.Active() {
		k.seq++
		k.events.update(t.slot, at, k.seq)
		return
	}
	t.arm(at)
}
