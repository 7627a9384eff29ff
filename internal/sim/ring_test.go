package sim

import (
	"testing"
	"time"
)

func TestRingFIFOAcrossWrap(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	// Push/pop in a skewed pattern so head travels around the buffer.
	for round := 0; round < 100; round++ {
		for i := 0; i < 3; i++ {
			r.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			if got := r.Pop(); got != expect {
				t.Fatalf("pop = %d, want %d", got, expect)
			}
			expect++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != expect {
			t.Fatalf("drain pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("popped %d values, pushed %d", expect, next)
	}
}

func TestRingPeekAndAt(t *testing.T) {
	var r Ring[string]
	r.Push("a")
	r.Push("b")
	r.Push("c")
	r.Pop()
	r.Push("d")
	if *r.Peek() != "b" {
		t.Errorf("peek = %q, want b", *r.Peek())
	}
	for i, want := range []string{"b", "c", "d"} {
		if got := *r.At(i); got != want {
			t.Errorf("at(%d) = %q, want %q", i, got, want)
		}
	}
}

func TestRingReusesCapacity(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 4; i++ {
		r.Push(i)
	}
	grown := len(r.buf)
	// Many full drain/fill cycles at the same depth must not regrow.
	for cycle := 0; cycle < 1000; cycle++ {
		for r.Len() > 0 {
			r.Pop()
		}
		for i := 0; i < 4; i++ {
			r.Push(i)
		}
	}
	if len(r.buf) != grown {
		t.Errorf("buffer grew from %d to %d despite bounded depth", grown, len(r.buf))
	}
}

// The simulation queue must cycle a bounded backing array: the seed's
// `items = items[1:]` re-slicing leaked capacity and reallocated forever.
func TestQueueReusesCapacity(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int]()
	const total = 50_000
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < total; i++ {
			q.Put(i)
			p.Sleep(0) // let the consumer take it, so the depth stays bounded
		}
		q.Close()
	})
	sum := 0
	k.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			sum += v
		}
	})
	k.Run()
	if want := total * (total - 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d (FIFO payload lost)", sum, want)
	}
	// The queue never holds more than one item, so 50k items through it
	// must not have grown its ring past the smallest buffer.
	if len(q.items.buf) > 8 {
		t.Errorf("items buffer = %d slots for a queue of depth 1", len(q.items.buf))
	}
	if len(q.getters.buf) > 8 {
		t.Errorf("getter buffer grew unbounded: %d slots", len(q.getters.buf))
	}
}

// An event that enters the run queue (scheduled at the current time) must
// still order after an already-heaped event at the same timestamp with a
// smaller sequence number.
func TestRunQueueRespectsHeapSeqOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []string
	k.At(time.Second, func() {
		// Runs first at t=1s; pushes to the run-queue fast path.
		k.After(0, func() { order = append(order, "rq") })
	})
	k.At(time.Second, func() { order = append(order, "heap") })
	k.Run()
	if len(order) != 2 || order[0] != "heap" || order[1] != "rq" {
		t.Errorf("order = %v, want [heap rq]", order)
	}
}

// The schedule/dispatch cycle must not allocate once warmed up: events are
// values in a recycled arena and due-now events ride the run-queue ring.
func TestSchedulingIsAllocationFree(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	fn := func() {}
	work := func() {
		for i := 0; i < 64; i++ {
			k.After(Time(i)*time.Microsecond, fn)
			k.After(0, fn)
		}
		k.Run()
	}
	work() // warm the arena and ring to their high-water mark
	if allocs := testing.AllocsPerRun(50, work); allocs != 0 {
		t.Errorf("schedule/dispatch allocated %.1f times per cycle, want 0", allocs)
	}
}
