package sim

// This file provides synchronization primitives for simulated processes.
// All of them deliver wake-ups through the kernel's event queue, never by
// running a waiter synchronously, which preserves deterministic
// one-process-at-a-time execution. Waiter lists and buffers recycle their
// storage so the park/wake cycle stays allocation-free in steady state.

// Signal is a broadcast condition: processes Wait on it and a later Fire
// wakes all current waiters. Waiters that arrive after a Fire wait for the
// next Fire (it is a condition variable, not a latch; see Latch for the
// one-shot variant).
type Signal struct {
	waiters []*Proc
}

// Wait parks the calling process until the next Fire.
func (s *Signal) Wait(p *Proc) {
	s.WaitStep(p, nil)
	p.Park()
}

// WaitStep is Wait for a step (see Proc.WakeAfter), which must not park:
// it queues p among the waiters, and the next Fire's wake-up runs step,
// or resumes the body when step is nil, at the event where Wait would
// have returned.
func (s *Signal) WaitStep(p *Proc, step func(*Proc)) {
	p.step = step
	s.waiters = append(s.waiters, p)
}

// Fire wakes every process currently waiting, in Wait order. It is safe to
// call from process or event context.
func (s *Signal) Fire() {
	waiters := s.waiters
	// Keep the backing array for reuse. Iterating it while truncated is
	// safe: wake only enqueues events, so no new Wait can append until
	// this call returns.
	s.waiters = s.waiters[:0]
	for _, w := range waiters {
		w.wake()
	}
}

// Waiting reports how many processes are parked on the signal.
func (s *Signal) Waiting() int { return len(s.waiters) }

// Latch is a one-shot event: once Release is called, all current and future
// Wait calls return immediately.
type Latch struct {
	released bool
	sig      Signal
}

// Released reports whether the latch has been released.
func (l *Latch) Released() bool { return l.released }

// Wait parks the calling process until the latch is released; if it already
// is, Wait returns immediately without yielding.
func (l *Latch) Wait(p *Proc) {
	if !l.WaitStep(p, nil) {
		p.Park()
	}
}

// WaitStep is Wait for a step (see Proc.WakeAfter), which must not park:
// on a released latch it reports true and queues nothing, and the caller
// goes on at once, as Wait returns at once; otherwise it queues p as
// Signal.WaitStep does and reports false.
func (l *Latch) WaitStep(p *Proc, step func(*Proc)) bool {
	if l.released {
		return true
	}
	l.sig.WaitStep(p, step)
	return false
}

// Release opens the latch, waking all waiters. Releasing twice is a no-op.
func (l *Latch) Release() {
	if l.released {
		return
	}
	l.released = true
	l.sig.Fire()
}

// Reset closes a released latch again so it can be reused, keeping the
// signal's waiter array. It must not be called while processes wait on it.
func (l *Latch) Reset() { l.released = false }

// Promise is a write-once container a process can block on; the simulated
// analogue of a future. The zero value is an unresolved promise.
type Promise[T any] struct {
	latch Latch
	val   T
}

// Resolve stores the value and wakes all waiters. Resolving twice panics:
// a promise is single-assignment by definition.
func (f *Promise[T]) Resolve(v T) {
	if f.latch.Released() {
		panic("sim: Promise resolved twice")
	}
	f.val = v
	f.latch.Release()
}

// Resolved reports whether a value has been stored.
func (f *Promise[T]) Resolved() bool { return f.latch.Released() }

// Get blocks the calling process until the promise is resolved, then
// returns the value.
func (f *Promise[T]) Get(p *Proc) T {
	f.latch.Wait(p)
	return f.val
}

// Queue is a FIFO channel between processes with an optional capacity bound.
// A capacity of 0 means unbounded. Items and waiter lists live in ring
// buffers, so a long-lived queue cycles a bounded backing array instead of
// re-slicing (and eventually reallocating) its way through memory.
type Queue[T any] struct {
	cap     int
	items   Ring[T]
	getters Ring[*Proc]
	putters Ring[*Proc]
	closed  bool
}

// NewQueue returns a queue holding at most capacity items (0 = unbounded).
func NewQueue[T any](capacity int) *Queue[T] {
	return &Queue[T]{cap: capacity}
}

// Len reports the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.Len() }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// TryPut appends an item if the queue has room, reporting success. It never
// blocks and is safe from event context.
func (q *Queue[T]) TryPut(v T) bool {
	if q.closed {
		panic("sim: Put on closed Queue")
	}
	if q.cap > 0 && q.items.Len() >= q.cap {
		return false
	}
	q.items.Push(v)
	if q.getters.Len() > 0 {
		q.getters.Pop().wake()
	}
	return true
}

// Put appends an item, blocking the calling process while the queue is full.
func (q *Queue[T]) Put(p *Proc, v T) {
	for !q.TryPut(v) {
		q.putters.Push(p)
		p.Park()
		if q.closed {
			panic("sim: Put on closed Queue")
		}
	}
}

// TryGet removes and returns the head item if one is buffered.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.items.Len() == 0 {
		var zero T
		return zero, false
	}
	v := q.items.Pop()
	if q.putters.Len() > 0 {
		q.putters.Pop().wake()
	}
	return v, true
}

// Get removes and returns the head item, blocking the calling process while
// the queue is empty. If the queue is closed and drained, Get returns the
// zero value and false.
func (q *Queue[T]) Get(p *Proc) (T, bool) {
	for {
		if v, ok := q.TryGet(); ok {
			return v, true
		}
		if q.closed {
			var zero T
			return zero, false
		}
		q.getters.Push(p)
		p.Park()
	}
}

// Close marks the queue closed and wakes all blocked getters and putters.
// Buffered items can still be drained with Get/TryGet.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for q.getters.Len() > 0 {
		q.getters.Pop().wake()
	}
	for q.putters.Len() > 0 {
		q.putters.Pop().wake()
	}
}

// Resource is a counting semaphore with FIFO admission, used to model
// capacity-limited things (CPU slots, connection pools, instance fleets).
type Resource struct {
	capacity int
	inUse    int
	waiters  Ring[*Proc]
}

// NewResource returns a resource with the given number of slots.
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: Resource capacity must be positive")
	}
	return &Resource{capacity: capacity}
}

// Capacity returns the total number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// Waiting returns the number of processes queued for a slot.
func (r *Resource) Waiting() int { return r.waiters.Len() }

// TryAcquire claims a slot without blocking, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.inUse >= r.capacity {
		return false
	}
	r.inUse++
	return true
}

// Acquire claims a slot, blocking the calling process until one is free.
// Admission is strictly FIFO among blocked processes.
func (r *Resource) Acquire(p *Proc) {
	if !r.AcquireStep(p, nil) {
		p.Park()
		// Our releaser granted the slot on our behalf (inUse stays claimed).
	}
}

// AcquireStep is Acquire for a step (see Proc.WakeAfter), which must not
// park: it claims a slot now and reports true, or queues p in Acquire's
// FIFO and reports false. A queued process's grant is its wake-up, and it
// runs step with the slot held, at the event where Acquire would have
// returned.
func (r *Resource) AcquireStep(p *Proc, step func(*Proc)) bool {
	if r.inUse < r.capacity && r.waiters.Len() == 0 {
		r.inUse++
		return true
	}
	p.step = step
	r.waiters.Push(p)
	return false
}

// Release returns a slot. If processes are waiting, the slot passes directly
// to the head waiter.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Resource released more than acquired")
	}
	if r.waiters.Len() > 0 {
		r.waiters.Pop().wake() // slot ownership transfers; inUse unchanged
		return
	}
	r.inUse--
}

// WaitGroup tracks a set of concurrent activities, letting a process block
// until all of them have finished.
type WaitGroup struct {
	count int
	done  Signal
}

// Add records n additional activities (n may be negative, like sync.WaitGroup).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		wg.done.Fire()
	}
}

// Done records one activity as finished.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait parks the calling process until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.done.Wait(p)
	}
}
