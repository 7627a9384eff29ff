package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestSignalWakesAllWaitersInOrder(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var sig Signal
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			sig.Wait(p)
			woke = append(woke, name)
		})
	}
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Second)
		if sig.Waiting() != 3 {
			t.Errorf("Waiting = %d, want 3", sig.Waiting())
		}
		sig.Fire()
	})
	k.Run()
	want := []string{"w1", "w2", "w3"}
	if len(woke) != 3 {
		t.Fatalf("woke = %v, want 3 waiters", woke)
	}
	for i := range want {
		if woke[i] != want[i] {
			t.Fatalf("woke = %v, want %v", woke, want)
		}
	}
}

func TestSignalLateWaiterMissesFire(t *testing.T) {
	k := NewKernel()
	var sig Signal
	fired := false
	k.Spawn("late", func(p *Proc) {
		p.Sleep(2 * time.Second)
		sig.Wait(p) // Fire already happened; parks forever.
		fired = true
	})
	k.Spawn("firer", func(p *Proc) {
		p.Sleep(time.Second)
		sig.Fire()
	})
	k.Run()
	if fired {
		t.Error("late waiter should not observe an earlier Fire")
	}
	k.Close()
}

func TestLatchIsSticky(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var l Latch
	var early, late Time
	k.Spawn("early", func(p *Proc) {
		l.Wait(p)
		early = p.Now()
	})
	k.Spawn("releaser", func(p *Proc) {
		p.Sleep(time.Second)
		l.Release()
		l.Release() // idempotent
	})
	k.Spawn("late", func(p *Proc) {
		p.Sleep(5 * time.Second)
		l.Wait(p) // already released: returns immediately
		late = p.Now()
	})
	k.Run()
	if early != time.Second {
		t.Errorf("early waiter woke at %v, want 1s", early)
	}
	if late != 5*time.Second {
		t.Errorf("late waiter woke at %v, want 5s (no blocking)", late)
	}
}

// TestLatchResetReuses checks that a reset latch blocks again until its
// next Release, so one latch can serve successive waits.
func TestLatchResetReuses(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var l Latch
	var woke []Time
	k.Spawn("waiter", func(p *Proc) {
		for range 2 {
			l.Wait(p)
			woke = append(woke, p.Now())
			l.Reset()
		}
	})
	k.Spawn("releaser", func(p *Proc) {
		p.Sleep(time.Second)
		l.Release()
		p.Sleep(time.Second)
		l.Release()
	})
	k.Run()
	if len(woke) != 2 || woke[0] != Time(time.Second) || woke[1] != Time(2*time.Second) {
		t.Errorf("waiter woke at %v, want [1s 2s]", woke)
	}
}

func TestPromiseDeliversValue(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var pr Promise[int]
	var got int
	k.Spawn("consumer", func(p *Proc) { got = pr.Get(p) })
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(time.Second)
		pr.Resolve(7)
	})
	k.Run()
	if got != 7 {
		t.Errorf("Get = %d, want 7", got)
	}
	if !pr.Resolved() {
		t.Error("Resolved = false after Resolve")
	}
}

func TestPromiseDoubleResolvePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("second Resolve did not panic")
		}
	}()
	var pr Promise[string]
	pr.Resolve("a")
	pr.Resolve("b")
}

func TestQueueFIFO(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](0)
	var got []int
	k.Spawn("producer", func(p *Proc) {
		for i := 1; i <= 5; i++ {
			q.Put(p, i)
			p.Sleep(time.Millisecond)
		}
		q.Close()
	})
	k.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Get(p)
			if !ok {
				return
			}
			got = append(got, v)
		}
	})
	k.Run()
	if len(got) != 5 {
		t.Fatalf("got %v, want 5 items", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("got = %v, want [1 2 3 4 5]", got)
		}
	}
}

func TestQueueCapacityBlocksPutter(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](2)
	var thirdPutAt Time
	k.Spawn("producer", func(p *Proc) {
		q.Put(p, 1)
		q.Put(p, 2)
		q.Put(p, 3) // blocks until consumer drains one
		thirdPutAt = p.Now()
	})
	k.Spawn("consumer", func(p *Proc) {
		p.Sleep(time.Second)
		if _, ok := q.TryGet(); !ok {
			t.Error("TryGet on full queue failed")
		}
	})
	k.Run()
	if thirdPutAt != time.Second {
		t.Errorf("third Put completed at %v, want 1s (after drain)", thirdPutAt)
	}
}

func TestQueueGetBlocksUntilPut(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[string](0)
	var got string
	var at Time
	k.Spawn("consumer", func(p *Proc) {
		got, _ = q.Get(p)
		at = p.Now()
	})
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(3 * time.Second)
		q.Put(p, "hello")
	})
	k.Run()
	if got != "hello" || at != 3*time.Second {
		t.Errorf("Get = %q at %v, want %q at 3s", got, at, "hello")
	}
}

func TestQueueCloseUnblocksGetters(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](0)
	okAfterClose := true
	k.Spawn("consumer", func(p *Proc) {
		_, okAfterClose = q.Get(p)
	})
	k.Spawn("closer", func(p *Proc) {
		p.Sleep(time.Second)
		q.Close()
	})
	k.Run()
	if okAfterClose {
		t.Error("Get on closed empty queue returned ok=true")
	}
}

func TestResourceFIFOAdmission(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	r := NewResource(1)
	var order []string
	hold := func(name string, start, dur Time) {
		k.Spawn(name, func(p *Proc) {
			p.Sleep(start)
			r.Acquire(p)
			order = append(order, name)
			p.Sleep(dur)
			r.Release()
		})
	}
	hold("first", 0, 10*time.Second)
	hold("second", time.Second, time.Second)
	hold("third", 2*time.Second, time.Second)
	k.Run()
	want := []string{"first", "second", "third"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("admission order = %v, want %v", order, want)
		}
	}
}

func TestResourceCounts(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	r := NewResource(2)
	if !r.TryAcquire() || !r.TryAcquire() {
		t.Fatal("TryAcquire failed on free resource")
	}
	if r.TryAcquire() {
		t.Fatal("TryAcquire succeeded beyond capacity")
	}
	if r.InUse() != 2 || r.Capacity() != 2 {
		t.Fatalf("InUse=%d Capacity=%d, want 2,2", r.InUse(), r.Capacity())
	}
	r.Release()
	if r.InUse() != 1 {
		t.Fatalf("InUse=%d after release, want 1", r.InUse())
	}
}

func TestResourceOverReleasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("over-release did not panic")
		}
	}()
	NewResource(1).Release()
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	var wg WaitGroup
	var doneAt Time
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		i := i
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(Time(i) * time.Second)
			wg.Done()
		})
	}
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	k.Run()
	if doneAt != 3*time.Second {
		t.Errorf("Wait returned at %v, want 3s", doneAt)
	}
}

// Property: for any set of event delays, events fire in nondecreasing time
// order and every event fires exactly once.
func TestQuickEventOrdering(t *testing.T) {
	prop := func(delaysMs []uint16) bool {
		if len(delaysMs) > 200 {
			delaysMs = delaysMs[:200]
		}
		k := NewKernel()
		defer k.Close()
		var fired []Time
		for _, d := range delaysMs {
			k.After(Time(d)*time.Millisecond, func() {
				fired = append(fired, k.Now())
			})
		}
		k.Run()
		if len(fired) != len(delaysMs) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: a bounded queue never holds more than its capacity and delivers
// items in FIFO order regardless of producer/consumer timing.
func TestQuickQueueBoundedFIFO(t *testing.T) {
	prop := func(items []byte, capRaw uint8) bool {
		if len(items) > 100 {
			items = items[:100]
		}
		capacity := int(capRaw%8) + 1
		k := NewKernel()
		defer k.Close()
		q := NewQueue[byte](capacity)
		var got []byte
		maxLen := 0
		k.Spawn("producer", func(p *Proc) {
			for _, it := range items {
				q.Put(p, it)
				if q.Len() > maxLen {
					maxLen = q.Len()
				}
				p.Sleep(Time(it%3) * time.Millisecond)
			}
			q.Close()
		})
		k.Spawn("consumer", func(p *Proc) {
			for {
				v, ok := q.Get(p)
				if !ok {
					return
				}
				got = append(got, v)
				p.Sleep(Time(v%5) * time.Millisecond)
			}
		})
		k.Run()
		if maxLen > capacity {
			return false
		}
		if len(got) != len(items) {
			return false
		}
		for i := range got {
			if got[i] != items[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: resource accounting never exceeds capacity and drains to zero.
func TestQuickResourceConservation(t *testing.T) {
	prop := func(durMs []uint8, capRaw uint8) bool {
		if len(durMs) > 50 {
			durMs = durMs[:50]
		}
		capacity := int(capRaw%4) + 1
		k := NewKernel()
		defer k.Close()
		r := NewResource(capacity)
		violated := false
		for _, d := range durMs {
			d := d
			k.Spawn("user", func(p *Proc) {
				r.Acquire(p)
				if r.InUse() > r.Capacity() {
					violated = true
				}
				p.Sleep(Time(d) * time.Millisecond)
				r.Release()
			})
		}
		k.Run()
		return !violated && r.InUse() == 0 && r.Waiting() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
