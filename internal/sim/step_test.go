package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// runPanic runs fn and returns what it panicked with, or nil.
func runPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// A step that panics fails the run as a panic of its process, whether the
// kernel loop ran it or the process's own Park did (self-handoff).
func TestStepPanicSurfacesAsProcPanic(t *testing.T) {
	for _, inline := range []bool{false, true} {
		t.Run(fmt.Sprintf("inline=%v", inline), func(t *testing.T) {
			k := NewKernel()
			defer k.Close()
			if !inline {
				// An event inside the sleep makes Park switch out, so
				// the kernel loop dispatches the step.
				k.At(time.Millisecond/2, func() {})
			}
			k.Spawn("stepper", func(p *Proc) {
				p.WakeAfter(time.Millisecond, func(*Proc) { panic("boom") })
				p.Park()
				t.Error("body resumed after its step panicked")
			})
			r := runPanic(func() { k.Run() })
			want := `sim: process "stepper" panicked: boom`
			if s, _ := r.(string); s != want {
				t.Fatalf("Run panicked with %v, want %q", r, want)
			}
			if got := k.Sched(); got.Steps != 1 || (got.Handoffs == 1) != inline {
				t.Errorf("sched = %+v, want one step, handed off only inline", got)
			}
		})
	}
}

// Close unwinds a process whose wake-up carries a step exactly once, runs
// no step afterwards and leaves nothing to run: one process sleeps into a
// step, another waits in a Resource queue for a grant that runs a step.
func TestCloseUnwindsSteppedProcsOnce(t *testing.T) {
	k := NewKernel()
	r := NewResource(1)
	unwound := map[string]int{}
	steps := 0
	step := func(p *Proc) {
		steps++
		p.WakeAfter(0, nil)
	}
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(time.Hour)
	})
	for _, name := range []string{"sleeper", "queued"} {
		k.Spawn(name, func(p *Proc) {
			defer func() { unwound[p.Name()]++ }()
			if name == "sleeper" {
				p.WakeAfter(time.Second, step)
			} else {
				p.WakeAfter(0, func(p *Proc) {
					if r.AcquireStep(p, step) {
						t.Error("queued process claimed the held slot")
					}
				})
			}
			p.Park()
			t.Errorf("%s resumed on a closed kernel", name)
		})
	}
	k.RunUntil(time.Second / 2)
	if steps != 0 || r.Waiting() != 1 {
		t.Fatalf("before Close: %d steps ran, %d waiting; want 0 and 1", steps, r.Waiting())
	}
	k.Close()
	if unwound["sleeper"] != 1 || unwound["queued"] != 1 {
		t.Errorf("Close unwound %v, want each stepped process once", unwound)
	}
	if steps != 0 {
		t.Errorf("%d steps ran during Close, want 0", steps)
	}
	if r := runPanic(func() { k.Run() }); r == nil {
		t.Error("Run after Close did not panic")
	}
	if steps != 0 {
		t.Errorf("%d steps ran after Close, want 0", steps)
	}
}

// places counts the wait structures holding p: scheduled heap events, run
// queue entries and r's waiters.
func places(k *Kernel, r *Resource, p *Proc) int {
	n := 0
	for _, s := range k.events.order {
		if k.events.arena[s].proc == p {
			n++
		}
	}
	for i := 0; i < k.rq.Len(); i++ {
		if k.rq.At(i).proc == p {
			n++
		}
	}
	for i := 0; i < r.waiters.Len(); i++ {
		if *r.waiters.At(i) == p {
			n++
		}
	}
	return n
}

// A process with a pending step sits in exactly one wait structure, from
// the first sleep through a queued acquire and its grant to the final
// wake-up, and in none once its body has resumed.
func TestPendingStepInExactlyOneWaitStructure(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	r := NewResource(1)
	k.Spawn("holder", func(p *Proc) {
		r.Acquire(p)
		p.Sleep(3 * time.Millisecond)
		r.Release()
	})
	var finish func(*Proc)
	serve := func(p *Proc) { p.WakeAfter(2*time.Millisecond, finish) }
	finish = func(p *Proc) {
		r.Release()
		p.WakeAfter(time.Millisecond, nil)
	}
	var done Time
	stepper := k.Spawn("stepper", func(p *Proc) {
		p.WakeAfter(time.Millisecond, func(p *Proc) {
			if r.AcquireStep(p, serve) {
				t.Error("stepper claimed the held slot")
			}
		})
		p.Park()
		done = p.Now()
	})
	probes := 0
	var probe func()
	probe = func() {
		want := 1
		if done != 0 {
			want = 0
		}
		if got := places(k, r, stepper); got != want {
			t.Errorf("at %v the stepper is in %d wait structures, want %d", k.Now(), got, want)
		}
		probes++
		if k.Now() < 8*time.Millisecond {
			k.After(time.Millisecond/4, probe)
		}
	}
	k.At(time.Millisecond/8, probe)
	k.Run()
	// Grant at 3 ms, service 2 ms, then the last 1 ms leg.
	if done != 6*time.Millisecond {
		t.Errorf("stepper resumed at %v, want 6ms", done)
	}
	if probes < 30 {
		t.Errorf("only %d probes ran", probes)
	}
}

// With nothing else scheduled, every wake-up of a chain is the parking
// process's own next event, so Park runs the steps itself: the body is
// resumed once, at its start, and never switched out.
func TestStepRunsOnSelfHandoff(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var at []Time
	var done Time
	step2 := func(p *Proc) {
		at = append(at, p.Now())
		p.WakeAfter(time.Millisecond, nil)
	}
	k.Spawn("chain", func(p *Proc) {
		p.WakeAfter(time.Millisecond, func(p *Proc) {
			at = append(at, p.Now())
			p.WakeAfter(time.Millisecond, step2)
		})
		p.Park()
		done = p.Now()
	})
	k.Run()
	if len(at) != 2 || at[0] != time.Millisecond || at[1] != 2*time.Millisecond || done != 3*time.Millisecond {
		t.Fatalf("steps at %v, body resumed at %v; want [1ms 2ms] and 3ms", at, done)
	}
	got := k.Sched()
	// Whether the one spawn found a pooled coroutine depends on the tests
	// that ran before.
	want := Sched{Dispatched: 1, Resumes: 1, Handoffs: 3, Steps: 2, Spawns: 1, Coroutines: got.Coroutines, Hash: got.Hash}
	if got != want {
		t.Errorf("sched = %+v, want %+v", got, want)
	}
}

// The self-handoff path honours the RunUntil bound for steps too: a step
// due after the bound waits for the next Run, and the kernel loop runs it.
func TestStepSelfHandoffHonoursRunUntil(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	steps := 0
	var done Time
	step := func(p *Proc) {
		steps++
		if steps < 2 {
			p.WakeAfter(time.Millisecond, func(p *Proc) {
				steps++
				p.WakeAfter(time.Millisecond, nil)
			})
		}
	}
	k.Spawn("chain", func(p *Proc) {
		p.WakeAfter(time.Millisecond, step)
		p.Park()
		done = p.Now()
	})
	if now := k.RunUntil(3 * time.Millisecond / 2); now != 3*time.Millisecond/2 || steps != 1 {
		t.Fatalf("RunUntil(1.5ms) reached %v with %d steps run, want 1.5ms and 1", now, steps)
	}
	k.Run()
	if steps != 2 || done != 3*time.Millisecond {
		t.Fatalf("%d steps, body resumed at %v; want 2 and 3ms", steps, done)
	}
	if got := k.Sched(); got.Handoffs != 1 || got.Steps != 2 || got.Resumes != 2 {
		t.Errorf("sched = %+v, want 1 handoff (the first step), 2 steps, 2 resumes", got)
	}
}

// One slab of Procs plus the allocator's 8-byte header fits the 4,096-byte
// size class: carving a slab's worth of processes allocates no more.
func TestProcSlabFitsSizeClass(t *testing.T) {
	if size := procSlab*int(unsafe.Sizeof(Proc{})) + 8; size > 4096 || size+int(unsafe.Sizeof(Proc{})) <= 4096 {
		t.Fatalf("%d Procs of %d B take %d B with the header, want the most that fit 4,096",
			procSlab, unsafe.Sizeof(Proc{}), size)
	}
	k := NewKernel() // never closed: its carved slots have no coroutines
	least := ^uint64(0)
	for trial := 0; trial < 5; trial++ {
		k.slabs = make([][]Proc, 0, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < procSlab; i++ {
			k.carve()
		}
		runtime.ReadMemStats(&after)
		if len(k.slabs) != 1 {
			t.Fatalf("%d carves opened %d slabs, want 1", procSlab, len(k.slabs))
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > 4096 {
		t.Errorf("carving one slab allocated %d B, want at most 4,096", least)
	}
}

// Signal.WaitStep and Latch.WaitStep queue a process whose wake-up runs a
// step at the Fire or Release, as Wait would have resumed it there; a
// released latch reports true and queues nothing.
func TestWaitStepRunsAtFire(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var sig Signal
	var l Latch
	var at []Time
	var done Time
	k.Spawn("waiter", func(p *Proc) {
		sig.WaitStep(p, func(p *Proc) {
			at = append(at, p.Now())
			if l.WaitStep(p, func(p *Proc) {
				at = append(at, p.Now())
				if !l.WaitStep(p, nil) {
					t.Error("a released latch queued its waiter")
				}
				p.WakeAfter(time.Millisecond, nil)
			}) {
				t.Error("an unreleased latch reported released")
			}
		})
		p.Park()
		done = p.Now()
	})
	k.At(2*time.Millisecond, sig.Fire)
	k.At(5*time.Millisecond, l.Release)
	k.Run()
	if len(at) != 2 || at[0] != 2*time.Millisecond || at[1] != 5*time.Millisecond || done != 6*time.Millisecond {
		t.Fatalf("steps at %v, body resumed at %v; want [2ms 5ms] and 6ms", at, done)
	}
	if sig.Waiting() != 0 {
		t.Errorf("%d processes still wait on the fired signal", sig.Waiting())
	}
	if got := k.Sched(); got.Steps != 2 || got.Resumes != 2 {
		t.Errorf("sched = %+v, want two steps and two resumes (start, last wake-up)", got)
	}
}

// Redirect changes what a pending wake-up runs and nothing else: the
// wake-up keeps its time and its place in the event order.
func TestRedirectKeepsTheWakeUp(t *testing.T) {
	run := func(redirect bool) (ran bool, done Time, hash uint64) {
		k := NewKernel()
		defer k.Close()
		p := k.Spawn("p", func(p *Proc) {
			p.WakeAfter(3*time.Millisecond, func(p *Proc) {
				ran = true
				p.WakeAfter(time.Millisecond, nil)
			})
			p.Park()
			done = p.Now()
		})
		k.At(time.Millisecond, func() {
			if redirect {
				p.Redirect(nil)
			}
		})
		k.Run()
		return ran, done, k.Sched().Hash
	}
	ran, done, _ := run(false)
	if !ran || done != 4*time.Millisecond {
		t.Fatalf("unredirected: step ran %v, body resumed at %v; want a step and 4ms", ran, done)
	}
	ran, done, hash := run(true)
	if ran || done != 3*time.Millisecond {
		t.Fatalf("redirected: step ran %v, body resumed at %v; want no step and 3ms", ran, done)
	}
	// The same events, less the step's own wake-up, in the same order.
	k := NewKernel()
	defer k.Close()
	k.Spawn("p", func(p *Proc) { p.Sleep(3 * time.Millisecond) })
	k.At(time.Millisecond, func() {})
	k.Run()
	if want := k.Sched().Hash; hash != want {
		t.Errorf("redirected run hashed %x, a plain sleep %x", hash, want)
	}
}
