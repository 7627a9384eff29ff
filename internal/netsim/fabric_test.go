package netsim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

func almostEqual(a, b, tolFrac float64) bool {
	if a == b {
		return true
	}
	denom := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b)/denom <= tolFrac
}

func TestSingleFlowUsesFullCapacity(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	l := f.NewLink("nic", MBps(100))
	var elapsed sim.Time
	k.Spawn("xfer", func(p *sim.Proc) {
		f.Transfer(p, 100e6, l) // 100 MB over 100 MB/s => 1s
		elapsed = p.Now()
	})
	k.Run()
	if !almostEqual(elapsed.Seconds(), 1.0, 0.001) {
		t.Errorf("transfer took %v, want ~1s", elapsed)
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	l := f.NewLink("nic", MBps(100))
	var done [2]sim.Time
	for i := 0; i < 2; i++ {
		i := i
		k.Spawn("xfer", func(p *sim.Proc) {
			f.Transfer(p, 100e6, l)
			done[i] = p.Now()
		})
	}
	k.Run()
	// Both flows share 100MB/s: each gets 50MB/s, finishing together at 2s.
	for i, d := range done {
		if !almostEqual(d.Seconds(), 2.0, 0.001) {
			t.Errorf("flow %d finished at %v, want ~2s", i, d)
		}
	}
}

func TestStaggeredFlowSpeedsUpAfterCompetitorFinishes(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	l := f.NewLink("nic", MBps(100))
	var bigDone sim.Time
	k.Spawn("big", func(p *sim.Proc) {
		f.Transfer(p, 150e6, l)
		bigDone = p.Now()
	})
	k.Spawn("small", func(p *sim.Proc) {
		f.Transfer(p, 50e6, l)
	})
	k.Run()
	// Shared phase: both at 50MB/s until small's 50MB drains at t=1s.
	// Big then has 100MB left at full 100MB/s => finishes at t=2s.
	if !almostEqual(bigDone.Seconds(), 2.0, 0.001) {
		t.Errorf("big flow finished at %v, want ~2s", bigDone)
	}
}

func TestMaxMinBottleneckRates(t *testing.T) {
	// Classic max-min scenario: flows A (link1 only), B (link1+link2),
	// C (link2 only). link1 = 100, link2 = 50 (MB/s).
	// Water-filling: link2 is bottleneck (50/2=25): B=C=25.
	// Then link1 has 75 free for A alone: A=75.
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	l1 := f.NewLink("l1", MBps(100))
	l2 := f.NewLink("l2", MBps(50))
	// Start three long transfers; rates are re-solved incrementally on
	// every start, so they can be read straight off the flow slots.
	f.TransferAsync(1e12, l1)
	f.TransferAsync(1e12, l1, l2)
	f.TransferAsync(1e12, l2)
	got := map[string]float64{}
	for _, id := range f.order {
		s := &f.flows[id]
		key := ""
		for _, l := range s.links {
			key += l.name
		}
		got[key] = float64(s.rate) / 1e6
	}
	if !almostEqual(got["l1"], 75, 0.01) {
		t.Errorf("A rate = %v MB/s, want 75", got["l1"])
	}
	if !almostEqual(got["l1l2"], 25, 0.01) {
		t.Errorf("B rate = %v MB/s, want 25", got["l1l2"])
	}
	if !almostEqual(got["l2"], 25, 0.01) {
		t.Errorf("C rate = %v MB/s, want 25", got["l2"])
	}
}

func TestBandwidthCollapseUnderPacking(t *testing.T) {
	// The paper's constraint (2): 538 Mbps for one function; ~28 Mbps
	// average with 20 functions packed on one host. With a fair-shared
	// NIC the per-flow rate must be capacity/20.
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	nic := f.NewLink("host-nic", Mbps(538))
	for i := 0; i < 20; i++ {
		f.TransferAsync(1e12, nic)
	}
	for _, id := range f.order {
		mbps := float64(f.flows[id].rate) * 8 / 1e6
		if !almostEqual(mbps, 538.0/20, 0.01) {
			t.Fatalf("per-flow rate = %.1f Mbps, want %.1f", mbps, 538.0/20)
		}
	}
}

func TestZeroByteTransferIsInstant(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	l := f.NewLink("nic", MBps(1))
	var at sim.Time = -1
	k.Spawn("xfer", func(p *sim.Proc) {
		f.Transfer(p, 0, l)
		at = p.Now()
	})
	k.Run()
	if at != 0 {
		t.Errorf("zero-byte transfer took %v", at)
	}
}

func TestSetCapacityMidFlight(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	l := f.NewLink("nic", MBps(100))
	var done sim.Time
	k.Spawn("xfer", func(p *sim.Proc) {
		f.Transfer(p, 200e6, l)
		done = p.Now()
	})
	k.Spawn("upgrader", func(p *sim.Proc) {
		p.Sleep(time.Second) // 100MB moved so far
		l.SetCapacity(f, MBps(200))
	})
	k.Run()
	// Remaining 100MB at 200MB/s => +0.5s.
	if !almostEqual(done.Seconds(), 1.5, 0.001) {
		t.Errorf("transfer finished at %v, want ~1.5s", done)
	}
}

func TestTransferAsyncLatch(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	f := NewFabric(k)
	l := f.NewLink("nic", MBps(10))
	latch := f.TransferAsync(10e6, l)
	if latch.Released() {
		t.Fatal("latch released before transfer completed")
	}
	var at sim.Time
	k.Spawn("waiter", func(p *sim.Proc) {
		latch.Wait(p)
		at = p.Now()
	})
	k.Run()
	if !almostEqual(at.Seconds(), 1.0, 0.001) {
		t.Errorf("async transfer completed at %v, want ~1s", at)
	}
}

// Property: with n equal flows on one link, all finish at n * (size/capacity)
// and total bytes moved equals n*size (conservation).
func TestQuickEqualSharingConservation(t *testing.T) {
	prop := func(nRaw, sizeRaw uint8) bool {
		n := int(nRaw%8) + 1
		size := (int64(sizeRaw) + 1) * 1e6
		k := sim.NewKernel()
		defer k.Close()
		f := NewFabric(k)
		l := f.NewLink("nic", MBps(100))
		finish := make([]sim.Time, n)
		for i := 0; i < n; i++ {
			i := i
			k.Spawn("xfer", func(p *sim.Proc) {
				f.Transfer(p, size, l)
				finish[i] = p.Now()
			})
		}
		k.Run()
		want := float64(n) * float64(size) / 100e6
		for _, ft := range finish {
			if !almostEqual(ft.Seconds(), want, 0.01) {
				return false
			}
		}
		return f.InFlight() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCompletionOrderIsAttachOrder pins the fix for the latent completion
// nondeterminism: when several flows drain in the same recompute (equal
// fair shares on one link, identical sizes, so they finish simultaneously),
// their done-latches must release — and their waiters wake — in attach
// order. The historical engine iterated a map here, waking waiters in Go's
// randomized map order; this test fails against it in all but 1/N! runs.
func TestCompletionOrderIsAttachOrder(t *testing.T) {
	const n = 8
	for trial := 0; trial < 10; trial++ {
		k := sim.NewKernel()
		f := NewFabric(k)
		l := f.NewLink("nic", MBps(100))
		var woke []int
		for i := 0; i < n; i++ {
			i := i
			latch := f.TransferAsync(10e6, l)
			k.Spawn("waiter", func(p *sim.Proc) {
				latch.Wait(p)
				woke = append(woke, i)
			})
		}
		k.Run()
		k.Close()
		if len(woke) != n {
			t.Fatalf("trial %d: %d of %d waiters woke", trial, len(woke), n)
		}
		for i, v := range woke {
			if v != i {
				t.Fatalf("trial %d: waiters woke in order %v, want attach order", trial, woke)
			}
		}
	}
}

// Property: max-min rates never exceed any crossed link's capacity and
// every link with at least one flow is fully utilized or all its flows are
// bottlenecked elsewhere.
func TestQuickMaxMinFeasibleAndEfficient(t *testing.T) {
	prop := func(seed uint64) bool {
		rng := simrand.New(seed)
		k := sim.NewKernel()
		defer k.Close()
		f := NewFabric(k)
		nLinks := rng.Intn(4) + 2
		links := make([]*Link, nLinks)
		for i := range links {
			links[i] = f.NewLink("l", MBps(float64(rng.Intn(90)+10)))
		}
		nFlows := rng.Intn(8) + 1
		for i := 0; i < nFlows; i++ {
			cnt := rng.Intn(nLinks) + 1
			perm := rng.Perm(nLinks)
			fls := make([]*Link, cnt)
			for j := 0; j < cnt; j++ {
				fls[j] = links[perm[j]]
			}
			f.TransferAsync(1e12, fls...)
		}
		linkSum := func(l *Link) float64 {
			var sum float64
			for _, id := range l.flowIDs {
				sum += float64(f.flows[id].rate)
			}
			return sum
		}
		// Feasibility: per-link sum of rates <= capacity (+0.1% slack).
		for _, l := range links {
			if linkSum(l) > float64(l.capacity)*1.001 {
				return false
			}
		}
		// Efficiency: every flow is bottlenecked on at least one of its
		// links (cannot be raised without exceeding some capacity).
		for _, id := range f.order {
			s := &f.flows[id]
			bottlenecked := false
			for _, l := range s.links {
				if linkSum(l) >= float64(l.capacity)*0.999 {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked && s.rate > 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TransferStep's flow completes where Transfer's would, sharing the link
// the same way, and its completion runs the step there; an empty transfer
// reports true and starts nothing.
func TestTransferStepMatchesTransfer(t *testing.T) {
	run := func(stepped bool) (done, stepAt sim.Time) {
		k := sim.NewKernel()
		defer k.Close()
		f := NewFabric(k)
		l := f.NewLink("nic", MBps(100))
		k.Spawn("rival", func(p *sim.Proc) { f.Transfer(p, 50e6, l) })
		k.Spawn("xfer", func(p *sim.Proc) {
			p.Sleep(100 * time.Millisecond)
			if !stepped {
				f.Transfer(p, 100e6, l)
				done = p.Now()
				return
			}
			if !f.TransferStep(p, 0, nil, l) {
				t.Error("an empty TransferStep started a flow")
			}
			if f.TransferStep(p, 100e6, func(p *sim.Proc) {
				stepAt = p.Now()
				p.WakeAfter(0, nil)
			}, l) {
				t.Error("a 100 MB TransferStep completed at once")
			}
			p.Park()
			done = p.Now()
		})
		k.Run()
		return done, stepAt
	}
	want, _ := run(false)
	done, stepAt := run(true)
	if stepAt != want || done != want {
		t.Errorf("stepped transfer's step ran at %v and the body resumed at %v, blocking transfer done at %v",
			stepAt, done, want)
	}
}
