package netsim

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkMaxMinSolve measures a full water-filling re-solve at the
// contention level of the bandwidth-collapse experiment (20 flows over
// shared links).
func BenchmarkMaxMinSolve(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	shared := f.NewLink("vm-nic", Mbps(538))
	sink := f.NewLink("sink", Gbps(400))
	for i := 0; i < 20; i++ {
		f.TransferAsync(1e12, shared, sink)
	}
	seeds := []*Link{shared, sink}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.solveComponent(seeds)
	}
}

// BenchmarkTransferLifecycle measures full start-progress-complete cycles.
func BenchmarkTransferLifecycle(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	l := f.NewLink("nic", MBps(100))
	done := 0
	k.Spawn("xfers", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			f.Transfer(p, 1e6, l)
			done++
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
	if done != b.N {
		b.Fatalf("completed %d, want %d", done, b.N)
	}
}

// BenchmarkFabricChurn measures transfer start/finish churn against a
// backdrop of concurrent long-lived flows sharing the same links — the
// steady-state hot path every scaled experiment funnels through. The
// allocs/op column is gated at zero in CI.
func BenchmarkFabricChurn(b *testing.B) {
	for _, flows := range []int{1, 20, 200} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			k := sim.NewKernel()
			defer k.Close()
			f := NewFabric(k)
			shared := f.NewLink("vm-nic", Mbps(538))
			sink := f.NewLink("sink", Gbps(400))
			for i := 0; i < flows-1; i++ {
				f.TransferAsync(1e15, shared, sink)
			}
			done := 0
			k.Spawn("churn", func(p *sim.Proc) {
				// Warm the arena and scratch before the timer starts.
				f.Transfer(p, 64e3, shared, sink)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.Transfer(p, 64e3, shared, sink)
					done++
				}
			})
			k.Run()
			if done != b.N {
				b.Fatalf("completed %d, want %d", done, b.N)
			}
		})
	}
}

// BenchmarkWANPartitionResolve measures a full partition/heal cycle on an
// inter-region trunk carrying stalled-and-resumed flows — two incremental
// component re-solves plus the stall bookkeeping. The allocs/op column is
// gated at zero in CI: chaos injection must ride the same allocation-free
// machinery as ordinary churn.
func BenchmarkWANPartitionResolve(b *testing.B) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	trunk := f.NewLink("wan/0-1", Gbps(1))
	src := f.NewLink("src-nic", Gbps(10))
	dst := f.NewLink("dst-nic", Gbps(10))
	for i := 0; i < 8; i++ {
		f.TransferAsync(1e15, src, trunk, dst)
	}
	ran := false
	k.Spawn("chaos", func(p *sim.Proc) {
		// Warm scratch before the timer starts.
		trunk.SetCapacity(f, 0)
		trunk.SetCapacity(f, Gbps(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trunk.SetCapacity(f, 0)
			trunk.SetCapacity(f, Gbps(1))
		}
		ran = true
	})
	k.Run()
	if !ran {
		b.Fatal("chaos loop never ran")
	}
}
