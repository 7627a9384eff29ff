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

// BenchmarkProcContextSwitch measures the park/wake handshake between the
// kernel and a process coroutine.
func BenchmarkProcContextSwitch(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ResetTimer()
	k.Run()
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
			p.Yield() // let the waiter re-park before the next fire
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkQueuePingPong measures a blocking request/response exchange
// between two processes over a pair of bounded queues — the proc-to-proc
// switch path. Gated at 0 allocs/op in CI.
func BenchmarkQueuePingPong(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	ping := NewQueue[int](1)
	pong := NewQueue[int](1)
	k.Spawn("client", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Put(p, i)
			pong.Get(p)
		}
	})
	k.Spawn("server", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			v, _ := ping.Get(p)
			pong.Put(p, v)
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
// bounded simulation queue.
func BenchmarkQueueHandoff(b *testing.B) {
	k := NewKernel()
	defer k.Close()
	q := NewQueue[int](8)
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Put(p, i)
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
