package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw kernel event dispatch rate — the
// quantity that bounds how much virtual time per wall second every
// experiment gets.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < b.N {
			k.After(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	k.After(0, tick)
	k.Run()
	if count != b.N && b.N > 0 {
		b.Fatalf("ran %d events, want %d", count, b.N)
	}
}

// BenchmarkProcResume measures one real switch between two processes: a
// wake-up the kernel loop dispatches by resuming a parked coroutine, never
// a self-handoff. The two processes take turns, each firing the other's
// signal and then waiting on its own; one op is one resume. Gated at 0
// allocs/op in CI.
func BenchmarkProcResume(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	var sigs [2]Signal
	turns := 0
	for i := range sigs {
		mine, theirs := &sigs[i], &sigs[1-i]
		k.Spawn("turn", func(p *Proc) {
			for turns < b.N {
				turns++
				theirs.Fire()
				mine.Wait(p)
			}
			theirs.Fire()
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if s := k.Sched(); s.Handoffs != 0 || s.Resumes < uint64(b.N) {
		b.Fatalf("sched = %+v: want %d resumes and no self-handoffs", s, b.N)
	}
}

// BenchmarkStepWake measures a stepped process's sleep-and-wake loop: each
// op is one wake-up that runs a step, which schedules the next one, with
// no coroutine involved. Against BenchmarkProcResume it prices a step
// against a resume. Gated at 0 allocs/op in CI.
func BenchmarkStepWake(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	n := 0
	var step func(*Proc)
	step = func(p *Proc) {
		if n++; n >= b.N {
			p.Exit()
			return
		}
		p.WakeAfter(time.Microsecond, step)
	}
	k.SpawnStep("stepper", step)
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	b.StopTimer()
	if s := k.Sched(); s.Resumes != 0 || s.Steps != uint64(b.N) {
		b.Fatalf("sched = %+v: want %d steps and no resumes", s, b.N)
	}
}

// BenchmarkKernelSleep measures the full Sleep hot path — heap push, park,
// dispatch, resume — which must run allocation-free: the CI workflow gates
// on this benchmark reporting 0 allocs/op.
func BenchmarkKernelSleep(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSignalFire measures the Wait/Fire wake-up cycle — the run-queue
// fast path every sync primitive rides. Gated at 0 allocs/op in CI.
func BenchmarkSignalFire(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	var sig Signal
	k.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sig.Wait(p)
		}
	})
	k.Spawn("firer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			sig.Fire()
			p.Sleep(0) // let the waiter re-park before the next fire
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkQueuePingPong measures a blocking request/response exchange
// between two processes over a pair of queues: each side parks in Get
// until the other's Put, the proc-to-proc switch path. Gated at 0
// allocs/op in CI.
func BenchmarkQueuePingPong(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	ping := NewQueue[int]()
	pong := NewQueue[int]()
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(i)
			pong.Get(p)
		}
	})
	k.Spawn("server", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			v, _ := ping.Get(p)
			pong.Put(v)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelLifecycle measures one whole kernel lifetime as a sweep
// point or experiment run sees it: 64 processes spawned, parked mid-body,
// then unwound by Close, with their coroutines drawn from and returned to
// the cross-kernel pool.
func BenchmarkKernelLifecycle(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := NewKernel()
		var never Signal
		for j := 0; j < 64; j++ {
			k.Spawn("parked", func(p *Proc) { never.Wait(p) })
		}
		k.Run()
		k.Close()
	}
}

// BenchmarkTimerReset measures the re-arm path components like the fabric
// completion estimate and the warm-pool reaper use: one persistent timer
// rekeyed in place, never abandoning events in the queue.
func BenchmarkTimerReset(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	tm := k.NewTimer(func() {})
	// Keep some heap depth so the rekey does real sift work.
	for i := 0; i < 64; i++ {
		k.AfterTimer(time.Duration(i+1)*time.Hour, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Duration(i%16+1) * time.Minute)
	}
	b.StopTimer()
}

// BenchmarkQueueHandoff measures producer/consumer handoffs through a
// simulation queue. The producer yields after each Put, so the consumer
// takes every item as it is put, rather than the whole run after the
// producer has filled the queue.
func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int]()
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(i)
			p.Sleep(0)
		}
		q.Close()
	})
	received := 0
	k.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Get(p); !ok {
				return
			}
			received++
		}
	})
	b.ResetTimer()
	k.Run()
	if received != b.N {
		b.Fatalf("received %d, want %d", received, b.N)
	}
}
