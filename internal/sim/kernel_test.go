package sim

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	if k.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", k.Now())
	}
}

func TestAtRunsInTimeOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []int
	k.At(30*time.Millisecond, func() { order = append(order, 3) })
	k.At(10*time.Millisecond, func() { order = append(order, 1) })
	k.At(20*time.Millisecond, func() { order = append(order, 2) })
	end := k.Run()
	if end != 30*time.Millisecond {
		t.Errorf("Run() = %v, want 30ms", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO tie-break violated)", i, v, i)
		}
	}
}

func TestSchedulingInThePastClampsToNow(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var at Time
	k.At(time.Second, func() {
		k.At(0, func() { at = k.Now() })
	})
	k.Run()
	if at != time.Second {
		t.Errorf("past event ran at %v, want clamped to 1s", at)
	}
}

func TestRunUntilStopsAndResumes(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var fired []Time
	for _, d := range []Time{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("after RunUntil(2s) fired=%v, want 2 events", fired)
	}
	if k.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", k.Now())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("after Run fired=%v, want 3 events", fired)
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.RunUntil(time.Minute)
	if k.Now() != time.Minute {
		t.Errorf("Now() = %v, want 1m", k.Now())
	}
}

func TestProcSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var woke Time
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(42 * time.Second)
		woke = p.Now()
	})
	k.Run()
	if woke != 42*time.Second {
		t.Errorf("woke at %v, want 42s", woke)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel()
		defer k.Close()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(time.Millisecond)
				}
			})
		}
		k.Run()
		return trace
	}
	first := run()
	for trial := 0; trial < 20; trial++ {
		got := run()
		if len(got) != len(first) {
			t.Fatalf("trace length changed: %v vs %v", got, first)
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic trace at %d: %v vs %v", i, got, first)
			}
		}
	}
	// Spawn order should hold within each round.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Spawn("child", func(c *Proc) {
			c.Sleep(time.Second)
			childRan = true
		})
		p.Sleep(2 * time.Second)
	})
	k.Run()
	if !childRan {
		t.Error("child process never ran")
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestProcPanicPropagatesToRun(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("bomber", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run did not re-raise process panic")
		}
	}()
	k.Run()
}

func TestCloseReapsParkedProcs(t *testing.T) {
	k := NewKernel()
	var sig Signal
	k.Spawn("stuck", func(p *Proc) {
		sig.Wait(p) // never fired
	})
	k.Run()
	if k.LiveProcs() != 1 {
		t.Fatalf("LiveProcs = %d, want 1 parked proc", k.LiveProcs())
	}
	k.Close()
	k.Close() // idempotent
}

// TestCloseUnwindsParkedProcsBeforeReturning: Close runs every parked
// body's defers, and their wake-ups, before it returns, not concurrently
// with the caller (run under -race).
func TestCloseUnwindsParkedProcsBeforeReturning(t *testing.T) {
	k := NewKernel()
	r := NewResource(8)
	var never Signal
	released := 0
	for i := 0; i < 8; i++ {
		k.Spawn("holder", func(p *Proc) {
			acquire(r, p)
			defer func() {
				r.Release()
				released++
			}()
			never.Wait(p)
		})
	}
	k.Spawn("waiter", func(p *Proc) { acquire(r, p) })
	k.RunUntil(time.Second)
	if r.Waiting() != 1 {
		t.Fatalf("Waiting = %d, want the ninth proc queued", r.Waiting())
	}
	k.Close()
	if released != 8 {
		t.Fatalf("%d of 8 deferred Releases ran before Close returned", released)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d after Close, want 0", k.LiveProcs())
	}
}

// TestCoroutinePoolReuseAcrossKernels: coroutines return to the
// cross-kernel pool at Close, so many kernel lifecycles run on one
// kernel's worth of them.
func TestCoroutinePoolReuseAcrossKernels(t *testing.T) {
	const procs = 64
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		k := NewKernel()
		var never Signal
		for j := 0; j < procs; j++ {
			k.Spawn("parked", func(p *Proc) { never.Wait(p) })
		}
		k.Run()
		if k.LiveProcs() != procs {
			t.Fatalf("lifecycle %d: LiveProcs = %d, want %d", i, k.LiveProcs(), procs)
		}
		k.Close()
	}
	if grew := runtime.NumGoroutine() - before; grew > procs+8 {
		t.Fatalf("goroutines grew by %d over 200 kernels, want <= %d", grew, procs+8)
	}
}

// TestGoexitInBodyEndsRunAndSparesPool: runtime.Goexit in a body (what
// t.FailNow does) ends the goroutine running the kernel, and the ended
// coroutine does not rejoin the pool to swallow a later process.
func TestGoexitInBodyEndsRunAndSparesPool(t *testing.T) {
	done := make(chan bool)
	go func() {
		returned := false
		defer func() { done <- returned }()
		k := NewKernel()
		defer k.Close()
		k.Spawn("quitter", func(p *Proc) { runtime.Goexit() })
		k.Run()
		returned = true
	}()
	if <-done {
		t.Fatal("Run returned after a body called runtime.Goexit")
	}
	k := NewKernel()
	defer k.Close()
	ran := false
	k.Spawn("next", func(p *Proc) { ran = true })
	k.Run()
	if !ran {
		t.Fatal("process spawned after a Goexit never ran")
	}
}

// TestClosedKernelIsCollected: a closed kernel leaves nothing behind that
// keeps it reachable, whatever its processes were doing. Each case runs a
// kernel for a second of virtual time, closes it, and checks through a
// weak pointer that two collections reclaim it. The coroutines go back
// to the cross-kernel pool, so one that kept its Proc would keep the
// whole kernel alive.
func TestClosedKernelIsCollected(t *testing.T) {
	cases := []struct {
		name string
		run  func(k *Kernel)
	}{
		{"parked", func(k *Kernel) {
			var never Signal
			k.Spawn("parked", func(p *Proc) { never.Wait(p) })
			k.RunUntil(time.Second)
		}},
		{"sleeping", func(k *Kernel) {
			k.Spawn("sleeping", func(p *Proc) { p.Sleep(time.Hour) })
			k.RunUntil(time.Second)
		}},
		{"stepped", func(k *Kernel) {
			var never Signal
			k.SpawnStep("stepped", func(p *Proc) { never.WaitStep(p, (*Proc).Exit) })
			k.RunUntil(time.Second)
		}},
		{"wake-after", func(k *Kernel) {
			k.Spawn("wake-after", func(p *Proc) {
				p.WakeAfter(time.Hour, func(*Proc) {})
				p.Park()
			})
			k.RunUntil(time.Second)
		}},
		{"completed", func(k *Kernel) {
			k.Spawn("completed", func(p *Proc) { p.Sleep(time.Millisecond) })
			k.RunUntil(time.Second)
		}},
		{"never-started", func(k *Kernel) {
			k.RunUntil(time.Second)
			k.Spawn("never-started", func(p *Proc) {})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel()
			c.run(k)
			k.Close()
			wk := weak.Make(k)
			k = nil
			runtime.GC()
			runtime.GC()
			if wk.Value() != nil {
				t.Fatal("closed kernel still reachable after two collections")
			}
		})
	}
}

func TestYieldRunsPeersFirst(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Sleep(0)
		trace = append(trace, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		trace = append(trace, "b1")
	})
	k.Run()
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestAfterZeroRunsAtCurrentTime(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var at Time = -1
	k.After(0, func() { at = k.Now() })
	k.Run()
	if at != 0 {
		t.Errorf("After(0) ran at %v, want 0", at)
	}
}

func TestManyProcsNoLeakOrDeadlock(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	const n = 1000
	done := 0
	for i := 0; i < n; i++ {
		i := i
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(Time(i) * time.Microsecond)
			done++
		})
	}
	k.Run()
	if done != n {
		t.Errorf("done = %d, want %d", done, n)
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", k.Pending())
	}
}

func TestSpawnOnClosedKernelPanics(t *testing.T) {
	k := NewKernel()
	k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Spawn on closed kernel did not panic")
		}
	}()
	k.Spawn("late", func(p *Proc) {})
}

func TestRunOnClosedKernelPanics(t *testing.T) {
	k := NewKernel()
	k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Run on closed kernel did not panic")
		}
	}()
	k.Run()
}

func TestNegativeSleepYields(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var at Time = -1
	k.Spawn("p", func(p *Proc) {
		p.Sleep(-time.Second)
		at = p.Now()
	})
	k.Run()
	if at != 0 {
		t.Errorf("negative sleep advanced time to %v", at)
	}
}

func TestProcIdentity(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var procs []*Proc
	var names []string
	for _, n := range []string{"one", "two"} {
		n := n
		k.Spawn(n, func(p *Proc) {
			procs = append(procs, p)
			names = append(names, p.name)
			if p.Kernel() != k {
				t.Error("Kernel() mismatch")
			}
		})
	}
	k.Run()
	if len(procs) != 2 || procs[0] == procs[1] {
		t.Errorf("two live processes ran as %v, want distinct Procs", procs)
	}
	if names[0] != "one" || names[1] != "two" {
		t.Errorf("names = %v", names)
	}
}

// TestCloseUnwindsEverySlabInSpawnOrder: with processes parked across
// several slabs, Close unwinds every body exactly once, in spawn order.
func TestCloseUnwindsEverySlabInSpawnOrder(t *testing.T) {
	const n = 200 // four slabs
	k := NewKernel()
	var never Signal
	var unwound []int
	for i := 0; i < n; i++ {
		k.Spawn("parked", func(p *Proc) {
			defer func() { unwound = append(unwound, i) }()
			never.Wait(p)
		})
	}
	k.Run()
	if len(k.slabs) != (n+procSlab-1)/procSlab {
		t.Fatalf("%d procs carved %d slabs, want %d", n, len(k.slabs), (n+procSlab-1)/procSlab)
	}
	k.Close()
	if len(unwound) != n {
		t.Fatalf("Close unwound %d bodies, want %d", len(unwound), n)
	}
	for i, got := range unwound {
		if got != i {
			t.Fatalf("unwind %d was process %d, want spawn order", i, got)
		}
	}
}

// TestProcSurvivesLaterSlabs: a *Proc carved from the first slab keeps its
// name while later slabs are carved, and is still the Proc its body resumes
// as.
func TestProcSurvivesLaterSlabs(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var go1, never Signal
	var resumed *Proc
	first := k.Spawn("first", func(p *Proc) {
		go1.Wait(p)
		resumed = p
	})
	for i := 0; i < 3*procSlab; i++ {
		k.Spawn("later", func(p *Proc) { never.Wait(p) })
	}
	k.Run()
	if first.name != "first" || first.Kernel() != k || &k.slabs[0][0] != first {
		t.Fatalf("first proc reads %q after later slabs, want \"first\" in slab 0 slot 0",
			first.name)
	}
	go1.Fire()
	k.Run()
	if resumed != first {
		t.Fatal("first body resumed as a different *Proc than Spawn returned")
	}
}

// TestExitedSlotsReusedLIFO: Spawn reuses the slot of the most recently
// exited process first.
func TestExitedSlotsReusedLIFO(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	a := k.Spawn("a", func(p *Proc) {})
	b := k.Spawn("b", func(p *Proc) {})
	c := k.Spawn("c", func(p *Proc) {})
	k.Run() // a, b, c exit in spawn order
	for i, want := range []*Proc{c, b, a} {
		if got := k.Spawn("reuse", func(p *Proc) {}); got != want {
			t.Fatalf("spawn %d after exits reused the wrong slot", i)
		}
	}
	if fresh := k.Spawn("fresh", func(p *Proc) {}); fresh == a || fresh == b || fresh == c {
		t.Fatal("spawn with an empty free list reused a live slot")
	}
	k.Run()
}

// TestSchedCountsEveryConsumedEvent: every event is consumed exactly once,
// by the kernel loop or by a self-handoff, and the counters say which.
func TestSchedCountsEveryConsumedEvent(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var sig Signal
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(time.Millisecond) // nothing else due: self-handoffs
		}
		sig.Wait(p)
	})
	k.After(10*time.Millisecond, sig.Fire)
	k.Run()
	got := k.Sched()
	// Spawn start, three sleeps, the Fire callback and the wake it sends.
	if got.Dispatched+got.Handoffs != 6 {
		t.Fatalf("consumed %d+%d events, want 6", got.Dispatched, got.Handoffs)
	}
	if got.Handoffs != 3 || got.Resumes != 2 {
		t.Errorf("sched = %+v, want 3 handoffs and 2 resumes (start, Fire wake)", got)
	}
	if got.Hash == 0 {
		t.Error("schedule hash is zero after six events")
	}
}

// TestSchedHashSeesOrderNotKind: the hash is a function of the consumed
// (at, seq) sequence alone. The same keys consumed as process wake-ups and
// as callbacks hash equal; swapping two same-instant events does not.
func TestSchedHashSeesOrderNotKind(t *testing.T) {
	run := func(schedule func(k *Kernel)) Sched {
		k := NewKernel()
		defer k.Close()
		schedule(k)
		k.Run()
		return k.Sched()
	}
	sleeps := run(func(k *Kernel) {
		k.Spawn("a", func(p *Proc) { p.Sleep(time.Millisecond) })
	})
	startThenCallback := run(func(k *Kernel) {
		k.At(0, func() {})
		k.At(time.Millisecond, func() {})
	})
	if sleeps.Hash != startThenCallback.Hash {
		t.Errorf("a process start and sleep hash %x, the same keys as callbacks %x",
			sleeps.Hash, startThenCallback.Hash)
	}
	var a, b Sched
	a.consumed(time.Millisecond, 1)
	a.consumed(time.Millisecond, 2)
	b.consumed(time.Millisecond, 2)
	b.consumed(time.Millisecond, 1)
	if a.Hash == b.Hash {
		t.Error("swapping two same-instant events left the hash unchanged")
	}
}

// TestSchedCountsHeapPops pins the heap counters on a hand-built
// schedule: three callbacks, a timer one of them stops, and two processes
// whose sleeps land in the heap. The loop pops six heap events and a
// self-handoff one more; the two starts come from the run queue.
func TestSchedCountsHeapPops(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	timer := k.AfterTimer(10*time.Millisecond, func() { t.Error("stopped timer fired") })
	k.At(time.Millisecond, func() {})
	k.At(2*time.Millisecond, func() { timer.Stop() })
	k.At(3*time.Millisecond, func() {})
	k.Spawn("a", func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		p.Sleep(time.Millisecond) // nothing else due: a self-handoff
	})
	k.Spawn("b", func(p *Proc) { p.Sleep(time.Millisecond) })
	k.Run()
	got := k.Sched()
	// Heap lengths at each pop: 6 (1ms callback), 5 (b's wake), 4 (2ms
	// callback, which stops the timer), 2 (3ms callback), 1 (a's wake),
	// 1 (a's second wake, by self-handoff).
	want := Sched{Dispatched: 7, Resumes: 4, Handoffs: 1, Spawns: 2, Coroutines: got.Coroutines,
		HeapPops: 6, HeapLenSum: 19, HeapMax: 6, PeakLive: 2, Hash: got.Hash}
	if got != want {
		t.Errorf("sched = %+v, want %+v", got, want)
	}
	if got.Dispatched+got.Handoffs-got.HeapPops != 2 {
		t.Errorf("%d run-queue pops, want the 2 starts", got.Dispatched+got.Handoffs-got.HeapPops)
	}
}

// TestSchedCountsSpawnsAndPoolMisses: every Spawn counts, and only a Spawn
// that finds the cross-kernel coroutine pool empty counts a coroutine.
func TestSchedCountsSpawnsAndPoolMisses(t *testing.T) {
	// Start from an empty pool, and give the coroutines back afterwards.
	coroPool.mu.Lock()
	saved := coroPool.free
	coroPool.free = nil
	coroPool.mu.Unlock()
	defer func() {
		coroPool.mu.Lock()
		coroPool.free = append(coroPool.free, saved...)
		coroPool.mu.Unlock()
	}()
	run := func() Sched {
		k := NewKernel()
		defer k.Close()
		for range 3 {
			k.Spawn("a", func(p *Proc) { p.Sleep(time.Millisecond) })
		}
		k.Run()
		k.Spawn("b", func(p *Proc) {}) // reuses an exited Proc
		k.Run()
		return k.Sched()
	}
	if got := run(); got.Spawns != 4 || got.Coroutines != 3 {
		t.Errorf("first kernel: %d spawns and %d coroutines created, want 4 and 3", got.Spawns, got.Coroutines)
	}
	// The first kernel's Close pooled its three coroutines.
	if got := run(); got.Spawns != 4 || got.Coroutines != 0 {
		t.Errorf("second kernel: %d spawns and %d coroutines created, want 4 and 0", got.Spawns, got.Coroutines)
	}
}
