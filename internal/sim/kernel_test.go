package sim

import (
	"runtime"
	"testing"
	"time"
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
			r.Acquire(p)
			defer func() {
				r.Release()
				released++
			}()
			never.Wait(p)
		})
	}
	k.Spawn("waiter", func(p *Proc) { r.Acquire(p) })
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

func TestYieldRunsPeersFirst(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var trace []string
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
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
	var ids []uint64
	var names []string
	for _, n := range []string{"one", "two"} {
		n := n
		k.Spawn(n, func(p *Proc) {
			ids = append(ids, p.ID())
			names = append(names, p.Name())
			if p.Kernel() != k {
				t.Error("Kernel() mismatch")
			}
		})
	}
	k.Run()
	if len(ids) != 2 || ids[0] == ids[1] {
		t.Errorf("ids = %v, want unique", ids)
	}
	if names[0] != "one" || names[1] != "two" {
		t.Errorf("names = %v", names)
	}
}
