package sim

import (
	"testing"
	"time"
)

func TestTimerStopPreventsFire(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	fired := false
	tm := k.AfterTimer(time.Second, func() { fired = true })
	if !tm.Active() {
		t.Fatal("timer not active after AfterTimer")
	}
	if !tm.Stop() {
		t.Fatal("Stop returned false on an armed timer")
	}
	if tm.Active() {
		t.Error("timer still active after Stop")
	}
	if tm.Stop() {
		t.Error("second Stop returned true")
	}
	if k.Pending() != 0 {
		t.Errorf("Pending = %d after Stop, want 0 (event must leave the queue)", k.Pending())
	}
	k.Run()
	if fired {
		t.Error("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	fired := 0
	tm := k.AfterTimer(time.Second, func() { fired++ })
	k.Run()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	if tm.Active() {
		t.Error("timer active after firing")
	}
	if tm.Stop() {
		t.Error("Stop after fire returned true")
	}
}

// A spent handle must not cancel an unrelated timer that recycled its slot.
func TestTimerStopIgnoresRecycledSlot(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	a := k.AfterTimer(time.Second, func() {})
	k.Run() // a fires; its slot returns to the free list
	fired := false
	b := k.AfterTimer(time.Second, func() { fired = true })
	if a.Stop() {
		t.Error("spent handle Stop returned true")
	}
	if !b.Active() {
		t.Fatal("b was cancelled through a stale handle")
	}
	k.Run()
	if !fired {
		t.Error("b did not fire")
	}
}

// Timers interleave with plain events at the same timestamp in schedule
// order, exactly as if they were scheduled with At.
func TestTimerOrdersLikeAt(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []int
	k.At(time.Second, func() { order = append(order, 1) })
	k.NewTimer(func() { order = append(order, 2) }).ResetAt(time.Second)
	k.At(time.Second, func() { order = append(order, 3) })
	k.AfterTimer(time.Second, func() { order = append(order, 4) })
	k.Run()
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want [1 2 3 4]", order)
		}
	}
}

func TestTimerResetMovesDeadline(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var at Time = -1
	tm := k.AfterTimer(time.Second, func() { at = k.Now() })
	k.At(500*time.Millisecond, func() { tm.Reset(2 * time.Second) })
	k.Run()
	if at != 2500*time.Millisecond {
		t.Errorf("reset timer fired at %v, want 2.5s", at)
	}
}

// Reset re-keys like a fresh schedule: against events at the same
// timestamp, a reset timer orders by its reset time, not its original one.
func TestTimerResetTakesNewSeq(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var order []string
	tm := k.AfterTimer(time.Second, func() { order = append(order, "timer") })
	tm.Reset(time.Second)
	k.At(time.Second, func() { order = append(order, "at") })
	// Without the re-key the timer would keep its original (earlier)
	// sequence number... but it was reset BEFORE "at" was scheduled, so
	// it still runs first; resetting again after flips the order.
	tm.Reset(time.Second)
	k.Run()
	if len(order) != 2 || order[0] != "at" || order[1] != "timer" {
		t.Errorf("order = %v, want [at timer]", order)
	}
}

func TestTimerResetAfterFireRearms(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	fired := 0
	tm := k.AfterTimer(time.Second, func() { fired++ })
	k.Run()
	tm.Reset(time.Second)
	k.Run()
	if fired != 2 {
		t.Errorf("fired = %d, want 2 (reset after fire re-arms)", fired)
	}
}

func TestNewTimerStartsUnarmed(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	fired := false
	tm := k.NewTimer(func() { fired = true })
	if tm.Active() {
		t.Error("NewTimer returned an armed timer")
	}
	if tm.Stop() {
		t.Error("Stop on unarmed timer returned true")
	}
	k.Run()
	if fired {
		t.Error("unarmed timer fired")
	}
	tm.ResetAt(time.Second)
	k.Run()
	if !fired {
		t.Error("armed timer did not fire")
	}
}

func TestTimerInThePastClampsToNow(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var at Time = -1
	k.At(time.Second, func() {
		k.NewTimer(func() { at = k.Now() }).ResetAt(0)
	})
	k.Run()
	if at != time.Second {
		t.Errorf("past timer ran at %v, want clamped to 1s", at)
	}
}

func TestAtOnClosedKernelPanics(t *testing.T) {
	k := NewKernel()
	k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("At on closed kernel did not panic")
		}
	}()
	k.At(time.Second, func() {})
}

func TestAfterOnClosedKernelPanics(t *testing.T) {
	k := NewKernel()
	k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("After on closed kernel did not panic")
		}
	}()
	k.After(time.Second, func() {})
}

func TestAfterTimerOnClosedKernelPanics(t *testing.T) {
	k := NewKernel()
	k.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("AfterTimer on closed kernel did not panic")
		}
	}()
	k.AfterTimer(time.Second, func() {})
}

// Stopping timers out of order exercises interior heap removal.
func TestTimerStopInteriorRemoval(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var fired []int
	timers := make([]*Timer, 20)
	for i := range timers {
		i := i
		timers[i] = k.AfterTimer(Time(i+1)*time.Second, func() { fired = append(fired, i) })
	}
	// Stop every third timer, scattered through the heap.
	for i := 0; i < len(timers); i += 3 {
		if !timers[i].Stop() {
			t.Fatalf("Stop(%d) failed", i)
		}
	}
	k.Run()
	for _, v := range fired {
		if v%3 == 0 {
			t.Errorf("stopped timer %d fired", v)
		}
	}
	want := len(timers) - (len(timers)+2)/3
	if len(fired) != want {
		t.Errorf("%d timers fired, want %d", len(fired), want)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i-1] >= fired[i] {
			t.Errorf("fire order not ascending: %v", fired)
		}
	}
}
