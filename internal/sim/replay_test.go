package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// This file checks the production scheduler (value heap + run-queue fast
// path + cancellable timers) against a deliberately naive reference
// implementation kept on container/heap with lazy timer deletion — the
// design the kernel used before the zero-allocation rewrite. Both execute
// the same randomized schedule of At/After/Spawn-chains/Timer
// Stop/Reset operations; the observable firing order must be identical.

// testSched is the scheduling surface the random driver runs against.
type testSched interface {
	// at schedules fn at absolute time t (a past t clamps to now).
	at(t Time, fn func())
	// after schedules fn at d past the current time (d may be zero or
	// negative; negative clamps to now like Kernel.At).
	after(d Time, fn func())
	// timer schedules fn at d past now, returning stop and reset handles.
	timer(d Time, fn func()) (stop func() bool, reset func(Time))
	// chain models a process: fn(0) runs at now, then fn(i) after
	// sleeping steps[i-1] between consecutive calls.
	chain(steps []Time, fn func(int))
	// clock returns the current time.
	clock() Time
	run()
}

// realSched adapts the production kernel.
type realSched struct{ k *Kernel }

func (r realSched) at(t Time, fn func())    { r.k.At(t, fn) }
func (r realSched) after(d Time, fn func()) { r.k.After(d, fn) }
func (r realSched) clock() Time             { return r.k.Now() }

func (r realSched) timer(d Time, fn func()) (func() bool, func(Time)) {
	t := r.k.AfterTimer(d, fn)
	return t.Stop, t.Reset
}

func (r realSched) chain(steps []Time, fn func(int)) {
	r.k.Spawn("chain", func(p *Proc) {
		fn(0)
		for i, d := range steps {
			p.Sleep(d)
			fn(i + 1)
		}
	})
}

func (r realSched) run() { r.k.Run() }

// refEvent is one reference-scheduler entry; stopped events stay in the
// heap and are skipped at dispatch (lazy deletion).
type refEvent struct {
	at      Time
	seq     uint64
	fn      func()
	stopped bool
	fired   bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// refSched is the reference scheduler.
type refSched struct {
	now Time
	seq uint64
	h   refHeap
}

func (r *refSched) push(at Time, fn func()) *refEvent {
	if at < r.now {
		at = r.now
	}
	r.seq++
	ev := &refEvent{at: at, seq: r.seq, fn: fn}
	heap.Push(&r.h, ev)
	return ev
}

func (r *refSched) at(t Time, fn func())    { r.push(t, fn) }
func (r *refSched) after(d Time, fn func()) { r.push(r.now+d, fn) }
func (r *refSched) clock() Time             { return r.now }

func (r *refSched) timer(d Time, fn func()) (func() bool, func(Time)) {
	ev := r.push(r.now+d, fn)
	stop := func() bool {
		if ev.stopped || ev.fired {
			return false
		}
		ev.stopped = true
		return true
	}
	reset := func(d Time) {
		// Like Timer.Reset: cancel the pending fire (if any) and
		// schedule afresh with a new sequence number.
		if !ev.fired {
			ev.stopped = true
		}
		ev = r.push(r.now+d, fn)
	}
	return stop, reset
}

func (r *refSched) chain(steps []Time, fn func(int)) {
	i := 0
	var step func()
	step = func() {
		fn(i)
		if i < len(steps) {
			d := steps[i]
			if d < 0 {
				d = 0
			}
			i++
			r.after(d, step)
		}
	}
	r.after(0, step)
}

func (r *refSched) run() {
	for len(r.h) > 0 {
		ev := heap.Pop(&r.h).(*refEvent)
		if ev.stopped {
			continue // a stopped event is gone: it sets no clock
		}
		r.now = ev.at
		ev.fired = true
		ev.fn()
	}
}

// driver builds a random schedule on s, logging every fire. Identical rng
// seeds produce identical operation streams as long as the two schedulers
// fire events in the same order — which is exactly what the test asserts.
func driver(seed int64, s testSched) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	var trace []uint64
	var nextID uint64
	remaining := 600 // events left to create

	// Durations skew heavily toward collisions: zero delays exercise the
	// run-queue fast path and repeated values force same-timestamp ties
	// broken only by sequence numbers.
	durations := []Time{0, 0, 0, time.Nanosecond, time.Nanosecond,
		5 * time.Nanosecond, time.Microsecond, time.Microsecond,
		50 * time.Microsecond, time.Millisecond, -time.Second}
	randDur := func() Time { return durations[rng.Intn(len(durations))] }

	type handle struct {
		stop  func() bool
		reset func(Time)
	}
	var timers []handle

	var randomOp func()
	logged := func(id uint64, extra func()) func() {
		return func() {
			trace = append(trace, id)
			if extra != nil {
				extra()
			}
		}
	}
	followUps := func() {
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			randomOp()
		}
	}
	randomOp = func() {
		switch op := rng.Intn(10); {
		case op < 4: // plain event
			if remaining <= 0 {
				return
			}
			remaining--
			nextID++
			s.after(randDur(), logged(nextID, followUps))
		case op < 7: // cancellable timer
			if remaining <= 0 {
				return
			}
			remaining--
			nextID++
			stop, reset := s.timer(randDur(), logged(nextID, followUps))
			timers = append(timers, handle{stop: stop, reset: reset})
		case op < 8: // process chain
			k := 1 + rng.Intn(3)
			if remaining < k {
				return
			}
			remaining -= k
			steps := make([]Time, k-1)
			for i := range steps {
				steps[i] = randDur()
			}
			base := nextID
			nextID += uint64(k)
			s.chain(steps, func(i int) {
				trace = append(trace, base+uint64(i)+1)
				followUps()
			})
		case op < 9: // stop a random timer
			if len(timers) == 0 {
				return
			}
			i := rng.Intn(len(timers))
			timers[i].stop()
			timers[i] = timers[len(timers)-1]
			timers = timers[:len(timers)-1]
		default: // reset a random timer
			if len(timers) == 0 {
				return
			}
			timers[rng.Intn(len(timers))].reset(randDur())
		}
	}

	for i := 0; i < 40; i++ {
		randomOp()
	}
	s.run()
	return trace
}

// TestSchedulerReplaysReferenceOrder: for seeds 1–20, the production
// scheduler must replay the randomized schedule in exactly the order the
// container/heap reference produces.
func TestSchedulerReplaysReferenceOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			k := NewKernel()
			defer k.Close()
			got := driver(seed, realSched{k: k})
			want := driver(seed, &refSched{})
			if len(got) == 0 {
				t.Fatal("empty trace; driver scheduled nothing")
			}
			if len(got) != len(want) {
				t.Fatalf("trace lengths differ: kernel %d, reference %d", len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("divergence at event %d: kernel fired %d, reference fired %d\nkernel:    %v\nreference: %v",
						i, got[i], want[i], got, want)
				}
			}
		})
	}
}

// stopped marks a Stop's result in a kernelCalls log: stopped+1 when it
// prevented a fire, stopped when it did not.
const stopped = 1 << 63

// kernelCalls decodes data into scheduling calls on s and runs them. Each
// call takes two bytes, an op and an argument. The op's low three bits pick
// At, After (ahead or in the past), AfterTimer, Stop, Reset or a process
// chain; its next two bits say how many further calls the event it
// schedules makes when it fires, so pushes interleave with pops, and its
// top three bits a chain's length. The argument is an absolute time for At
// and a delay otherwise, in nanoseconds and small, so that many events
// share an instant. The first byte sets how many calls are made between
// runs. It returns the log of every fire, with its time, and of every
// Stop's result.
func kernelCalls(data []byte, s testSched) []uint64 {
	type handle struct {
		stop  func() bool
		reset func(Time)
	}
	var log []uint64
	var timers []handle
	var id uint64
	var call func()
	call = func() {
		if len(data) < 2 {
			return
		}
		op, arg := data[0], data[1]
		data = data[2:]
		follow := int(op>>3) & 3
		d := Time(arg % 8)
		id++
		self := id
		fire := func(n uint64) {
			log = append(log, n, uint64(s.clock()))
			for range follow {
				call()
			}
		}
		event := func() { fire(self) }
		switch op & 7 {
		case 0:
			s.at(Time(arg), event)
		case 1:
			s.after(d, event)
		case 2:
			s.after(-d, event)
		case 3:
			stop, reset := s.timer(d, event)
			timers = append(timers, handle{stop, reset})
		case 4, 5:
			if len(timers) == 0 {
				return
			}
			t := timers[int(arg/8)%len(timers)]
			if op&7 == 5 {
				t.reset(d)
			} else if t.stop() {
				log = append(log, stopped+1)
			} else {
				log = append(log, stopped)
			}
		default:
			steps := []Time{Time(arg>>3) & 3, Time(arg>>5) & 7}[:(op>>5)%3]
			id += uint64(len(steps))
			s.chain(steps, func(i int) { fire(self + uint64(i)) })
		}
	}
	if len(data) == 0 {
		return nil
	}
	calls := 1 + int(data[0])%8
	data = data[1:]
	for len(data) >= 2 {
		for range calls {
			call()
		}
		s.run()
	}
	return log
}

// FuzzKernelOrder runs the calls decoded from each input on the kernel and
// on the container/heap reference, which fires events in (at, seq) order
// and applies Stop and Reset to its own copies. The logs of fires, their
// times and the Stops' results must be identical.
func FuzzKernelOrder(f *testing.F) {
	// Ties at one instant in the heap, broken by seq alone: three timers
	// armed 5 ns ahead, the first stopped and the last reset.
	f.Add([]byte{4, 3, 5, 3, 5, 3, 5, 4, 0, 5, 21})
	// A two-step chain sleeping 1 ns, then 2 ns, among callbacks at the
	// same instants that each schedule one more: at 3 ns the chain's
	// wake-up in the heap precedes a run-queue entry.
	f.Add([]byte{1, 0x46, 0x48, 0x09, 1, 0x09, 2, 0x08, 3, 0x01, 3, 0x01, 2})
	// Seven timers; the first to fire stops the one the pop moved to the
	// root, so Stop must find it at its new position.
	f.Add([]byte{6, 0x0b, 1, 3, 7, 3, 6, 3, 5, 3, 4, 3, 3, 3, 2, 4, 48})
	for seed := range int64(16) {
		b := make([]byte, 64+32*seed)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		k := NewKernel()
		defer k.Close()
		got := kernelCalls(data, realSched{k: k})
		want := kernelCalls(data, &refSched{})
		if !slices.Equal(got, want) {
			t.Fatalf("kernel log %v\nreference  %v", got, want)
		}
		if n := k.Pending(); n != 0 {
			t.Fatalf("%d events pending after Run", n)
		}
	})
}
