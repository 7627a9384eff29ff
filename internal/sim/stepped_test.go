package sim

import (
	"fmt"
	"testing"
	"time"
)

// A stepped process's start runs its step at its start event, in FIFO
// order with the starts of processes with bodies spawned at the same time.
func TestSpawnStepStartsInSpawnOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []string
	body := func(p *Proc) { order = append(order, p.name) }
	step := func(p *Proc) {
		order = append(order, p.name)
		p.Exit()
	}
	k.Spawn("a", body)
	k.SpawnStep("b", step)
	k.At(0, func() { order = append(order, "at") })
	k.Spawn("c", body)
	k.SpawnStep("d", step)
	k.Run()
	if want := "[a b at c d]"; fmt.Sprint(order) != want {
		t.Fatalf("started %v, want %s", order, want)
	}
	if got := k.Sched(); got.Spawns != 4 || got.Steps != 2 || got.Resumes != 2 {
		t.Errorf("sched = %+v, want 4 spawns, 2 steps (the stepped starts), 2 resumes", got)
	}
}

// Exit frees the slot and LiveProcs counts it out; the next spawn of
// either kind reuses the most recently freed slot first, a stepped one
// keeping (and never running) the coroutine of the body process before it.
func TestExitReusesSlotLIFO(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	exit := func(p *Proc) { p.Exit() }
	a := k.SpawnStep("a", exit)
	b := k.Spawn("b", func(p *Proc) {})
	c := k.SpawnStep("c", exit)
	if k.LiveProcs() != 3 {
		t.Fatalf("LiveProcs = %d before the starts, want 3", k.LiveProcs())
	}
	k.Run() // a, b, c end in spawn order
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after every process ended, want 0", k.LiveProcs())
	}
	coros := k.Sched().Coroutines
	if got := k.Spawn("reuse-c", func(p *Proc) {}); got != c {
		t.Fatal("Spawn after the exits did not reuse the last freed slot")
	}
	if got := k.SpawnStep("reuse-b", exit); got != b {
		t.Fatal("SpawnStep did not reuse the next freed slot")
	}
	if got := k.SpawnStep("reuse-a", exit); got != a {
		t.Fatal("SpawnStep did not reuse the first freed slot last")
	}
	if k.LiveProcs() != 3 {
		t.Fatalf("LiveProcs = %d after three reuses, want 3", k.LiveProcs())
	}
	k.Run()
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d at the end, want 0", k.LiveProcs())
	}
	// Only c's slot, which never had a coroutine, needed one for its body;
	// whether the pool had one depends on the tests that ran before.
	if got := k.Sched(); got.Coroutines > coros+1 {
		t.Errorf("reuses created %d coroutines, want at most 1", got.Coroutines-coros)
	}
}

// Close runs no step of a stepped process and resumes nothing, wherever its
// wake-up waits: in the event heap, in the run queue, in a Resource's queue
// or on a Signal.
func TestCloseRunsNoStepOfSteppedProcs(t *testing.T) {
	k := NewKernel()
	r := NewResource(1)
	var woken, never Signal
	steps := 0
	step := func(p *Proc) {
		steps++
		p.WakeAfter(0, func(p *Proc) { p.Exit() })
	}
	r.AcquireStep(nil, nil) // the one slot is free: taken at once
	k.SpawnStep("heap", func(p *Proc) { p.WakeAfter(time.Hour, step) })
	k.SpawnStep("runqueue", func(p *Proc) { woken.WaitStep(p, step) })
	k.SpawnStep("resource", func(p *Proc) {
		if r.AcquireStep(p, step) {
			t.Error("a held slot was granted")
		}
	})
	k.SpawnStep("signal", func(p *Proc) { never.WaitStep(p, step) })
	k.RunUntil(time.Second)
	woken.Fire() // queues the waiter's wake-up in the run queue
	if k.Pending() != 2 || r.Waiting() != 1 || never.Waiting() != 1 {
		t.Fatalf("before Close: %d pending, %d and %d waiting; want 2, 1 and 1",
			k.Pending(), r.Waiting(), never.Waiting())
	}
	before := k.Sched()
	k.Close()
	r.Release() // a grant after Close queues a wake-up nothing runs
	never.Fire()
	if steps != 0 {
		t.Errorf("%d steps ran at or after Close, want 0", steps)
	}
	if got := k.Sched(); got != before {
		t.Errorf("Close changed the dispatch record from %+v to %+v", before, got)
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d after Close, want 0", k.LiveProcs())
	}
	if before.Resumes != 0 {
		t.Errorf("%d resumes of stepped processes, want 0", before.Resumes)
	}
}

// A step of a stepped process that panics fails the run as that process's
// panic, and so do the two misuses the kernel can see: a wake-up that
// carries no step, and Exit called by a process with a body.
func TestSteppedProcPanics(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		spawn      func(k *Kernel)
	}{
		{"step", `sim: process "s" panicked: boom`, func(k *Kernel) {
			k.SpawnStep("s", func(p *Proc) {
				p.WakeAfter(time.Millisecond, func(*Proc) { panic("boom") })
			})
		}},
		{"no step", `sim: process "s" panicked: stepped process woke without a step`, func(k *Kernel) {
			k.SpawnStep("s", func(p *Proc) { p.WakeAfter(time.Millisecond, nil) })
		}},
		{"no step, reused slot", `sim: process "s" panicked: stepped process woke without a step`, func(k *Kernel) {
			// s takes b's slot, whose idle coroutine must not be resumed.
			k.Spawn("b", func(*Proc) {})
			k.At(time.Millisecond/4, func() {
				k.SpawnStep("s", func(p *Proc) { p.WakeAfter(time.Millisecond, nil) })
			})
		}},
		{"exit in body", `sim: process "b" panicked: sim: Exit in process b, which has a body`, func(k *Kernel) {
			k.Spawn("b", func(p *Proc) { p.Exit() })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel()
			defer k.Close()
			k.At(time.Millisecond/2, func() {}) // steps run in the kernel loop
			tc.spawn(k)
			r := runPanic(func() { k.Run() })
			if s, _ := r.(string); s != tc.want {
				t.Fatalf("Run panicked with %v, want %q", r, tc.want)
			}
		})
	}
}

// A workload of stepped processes alone never resumes a coroutine and
// takes none from the pool, however many wake-ups it runs.
func TestPureSteppedWorkloadResumesNothing(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var sig Signal
	const procs = 2 * procSlab
	wakes, exited := 0, 0
	for i := 0; i < procs; i++ {
		left := 5
		var step func(*Proc)
		step = func(p *Proc) {
			wakes++
			if left--; left == 0 {
				exited++
				p.Exit()
				return
			}
			if left%2 == 0 {
				sig.WaitStep(p, step)
			} else {
				p.WakeAfter(time.Duration(i)*time.Microsecond, step)
			}
		}
		k.SpawnStep("stepped", step)
	}
	k.Spawn("firer", func(p *Proc) {
		for exited < procs {
			p.Sleep(time.Millisecond)
			sig.Fire()
		}
	})
	k.Run()
	if wakes != 5*procs || k.LiveProcs() != 0 {
		t.Fatalf("%d wake-ups, %d live; want %d and 0", wakes, k.LiveProcs(), 5*procs)
	}
	k2 := NewKernel()
	defer k2.Close()
	var step func(*Proc)
	n := 0
	step = func(p *Proc) {
		if n++; n == 1000 {
			p.Exit()
			return
		}
		p.WakeAfter(time.Microsecond, step)
	}
	k2.SpawnStep("alone", step)
	k2.Run()
	got := k2.Sched()
	if got.Resumes != 0 || got.Coroutines != 0 || got.Handoffs != 0 || got.Steps != 1000 || got.Dispatched != 1000 {
		t.Errorf("sched = %+v, want 1,000 steps dispatched, no resumes, handoffs or coroutines", got)
	}
}
