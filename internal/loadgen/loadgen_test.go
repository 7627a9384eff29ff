package loadgen

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

func TestPoissonMeanRate(t *testing.T) {
	rng := simrand.New(1)
	p := Poisson{Rate: 100}
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += p.Next(rng)
	}
	mean := sum.Seconds() / n
	if math.Abs(mean-0.01) > 0.0005 {
		t.Errorf("mean gap = %vs, want ~0.01s at 100/s", mean)
	}
}

func TestPoissonZeroRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	Poisson{}.Next(simrand.New(1))
}

func TestUniformInterval(t *testing.T) {
	u := Uniform{Interval: 50 * time.Millisecond}
	if got := u.Next(nil); got != 50*time.Millisecond {
		t.Errorf("Next = %v", got)
	}
}

func TestBurstAlternates(t *testing.T) {
	rng := simrand.New(3)
	b := &Burst{On: Uniform{Interval: 10 * time.Millisecond},
		OnFor: 100 * time.Millisecond, OffFor: time.Second}
	sawLongGap := false
	for i := 0; i < 100; i++ {
		if b.Next(rng) >= time.Second {
			sawLongGap = true
		}
	}
	if !sawLongGap {
		t.Error("burst process never went quiet")
	}
}

// TestBurstPhaseTiming: with a fixed seed, every arrival must land inside
// an on-window — time mod (OnFor+OffFor) < OnFor. The pre-fix state machine
// restarted the on-window clock at the boundary-crossing arrival (swallowing
// its overshoot), so arrival phases drifted into the off-window.
func TestBurstPhaseTiming(t *testing.T) {
	rng := simrand.New(17)
	b := &Burst{On: Poisson{Rate: 100},
		OnFor: 100 * time.Millisecond, OffFor: time.Second}
	cycle := b.OnFor + b.OffFor
	var now time.Duration
	offGaps := 0
	for i := 0; i < 2000; i++ {
		gap := b.Next(rng)
		if gap >= b.OffFor {
			offGaps++
		}
		now += gap
		if phase := now % cycle; phase >= b.OnFor {
			t.Fatalf("arrival %d at %v lands %v into its cycle, inside the off-window",
				i, now, phase)
		}
	}
	// ~10 arrivals per 100ms on-window => ~200 cycle crossings.
	if offGaps < 150 || offGaps > 250 {
		t.Errorf("saw %d off-window gaps over 2000 arrivals, want ~200", offGaps)
	}
}

// TestBurstOffHonoredEveryCycle: a 20ms gap spans two whole 10ms on-windows,
// so every arrival must carry exactly two off-windows. The pre-fix logic
// skipped the off-window on alternate cycles (its in-off flag reset before
// the elapsed check ran).
func TestBurstOffHonoredEveryCycle(t *testing.T) {
	b := &Burst{On: Uniform{Interval: 20 * time.Millisecond},
		OnFor: 10 * time.Millisecond, OffFor: time.Second}
	for i := 0; i < 10; i++ {
		if got := b.Next(nil); got != 20*time.Millisecond+2*time.Second {
			t.Fatalf("Next #%d = %v, want 2.02s (gap plus two off-windows)", i, got)
		}
	}
}

func TestGeneratorOpenLoop(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	g := New(simrand.New(7), Uniform{Interval: 10 * time.Millisecond})
	completed := 0
	done := g.Run(k, time.Second, func(p *sim.Proc, seq int) {
		// Slow backend: takes far longer than the arrival gap. Open
		// loop means arrivals keep coming anyway.
		p.Sleep(500 * time.Millisecond)
		completed++
	})
	k.Spawn("watch", func(p *sim.Proc) { done.Wait(p) })
	k.Run()
	// ~99 arrivals in 1s at 10ms gaps.
	if g.Submitted < 90 || g.Submitted > 101 {
		t.Errorf("Submitted = %d, want ~99 (open loop)", g.Submitted)
	}
	if completed != g.Submitted {
		t.Errorf("completed %d of %d after drain", completed, g.Submitted)
	}
}

// TestGeneratorLatchReleasesAtWindowEnd: Run's latch promises the end of
// the generation window, not the time of the last arrival (at 300ms gaps in
// a 1s window the last arrival is at 900ms).
func TestGeneratorLatchReleasesAtWindowEnd(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	g := New(simrand.New(5), Uniform{Interval: 300 * time.Millisecond})
	done := g.Run(k, time.Second, func(p *sim.Proc, seq int) {})
	released := sim.Time(-1)
	k.Spawn("watch", func(p *sim.Proc) {
		done.Wait(p)
		released = p.Now()
	})
	k.Run()
	if released != sim.Time(time.Second) {
		t.Errorf("done latch released at %v, want exactly 1s (end of generation window)", released)
	}
}

func TestGeneratorSequencesAreUnique(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	g := New(simrand.New(9), Poisson{Rate: 200})
	seen := map[int]bool{}
	g.Run(k, 500*time.Millisecond, func(p *sim.Proc, seq int) {
		if seen[seq] {
			t.Errorf("duplicate seq %d", seq)
		}
		seen[seq] = true
	})
	k.Run()
	if len(seen) == 0 {
		t.Fatal("no requests generated")
	}
}

// TestGeneratorSchedulePinned pins the generator's place in the kernel's
// event order. With a 10ms uniform gap, two 10ms sleepers spawned either
// side of Run wake at the same instants as every arrival and log how many
// arrivals they have seen, so any change to how many events the generator
// schedules, or when, changes the trace. The Poisson run pins the arrival
// times and sequence numbers themselves (count, first arrivals and an
// FNV-1a digest of every (time, seq) pair).
func TestGeneratorSchedulePinned(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	g := New(simrand.New(1), Uniform{Interval: 10 * time.Millisecond})
	var trace []string
	sleeper := func(name string) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for range 4 {
				trace = append(trace, fmt.Sprintf("%v %s saw %d", time.Duration(p.Now()), name, g.Submitted))
				p.Sleep(10 * time.Millisecond)
			}
		}
	}
	k.Spawn("before", sleeper("before"))
	done := g.Run(k, 35*time.Millisecond, func(p *sim.Proc, seq int) {
		trace = append(trace, fmt.Sprintf("%v req %d", time.Duration(p.Now()), seq))
	})
	k.Spawn("after", sleeper("after"))
	k.Spawn("watch", func(p *sim.Proc) {
		done.Wait(p)
		trace = append(trace, fmt.Sprintf("%v released", time.Duration(p.Now())))
	})
	k.Run()
	want := []string{
		"0s before saw 0", "0s after saw 0",
		"10ms before saw 0", "10ms after saw 1", "10ms req 0",
		"20ms before saw 1", "20ms after saw 2", "20ms req 1",
		"30ms before saw 2", "30ms after saw 3", "30ms req 2",
		"35ms released",
	}
	if !slices.Equal(trace, want) {
		t.Errorf("trace\n %q\nwant\n %q", trace, want)
	}

	k2 := sim.NewKernel()
	defer k2.Close()
	g2 := New(simrand.New(9), &Burst{On: Poisson{Rate: 200}, OnFor: 100 * time.Millisecond, OffFor: 50 * time.Millisecond})
	h := fnv.New64a()
	var first []time.Duration
	n := 0
	g2.Run(k2, 2*time.Second, func(p *sim.Proc, seq int) {
		if seq != n {
			t.Errorf("arrival %d got seq %d", n, seq)
		}
		n++
		if len(first) < 3 {
			first = append(first, time.Duration(p.Now()))
		}
		fmt.Fprintf(h, "%d/%d;", p.Now(), seq)
	})
	k2.Run()
	wantFirst := []time.Duration{1910969, 3344748, 9978795}
	if n != 278 || g2.Submitted != 278 || !slices.Equal(first, wantFirst) || h.Sum64() != 0xf9a364d4aac582e6 {
		t.Errorf("Poisson burst: %d arrivals (Submitted %d), first %v, digest %#x; want 278, first %v, digest 0xf9a364d4aac582e6",
			n, g2.Submitted, first, h.Sum64(), wantFirst)
	}
}

// TestGeneratorRunAllocations: an arrival allocates nothing (a run of 1,000
// arrivals allocates what a run of 10 does), and a whole run, the kernel's
// own queues included, stays within the 9 allocations it measures. Three
// of them are Run's state and its two bound funcs; a generator process, as
// Run used before, made it 10.
func TestGeneratorRunAllocations(t *testing.T) {
	g := New(simrand.New(1), Uniform{Interval: time.Millisecond})
	run := func(arrivals int) float64 {
		return testing.AllocsPerRun(50, func() {
			k := sim.NewKernel()
			g.Run(k, time.Duration(arrivals)*time.Millisecond+time.Microsecond, func(*sim.Proc, int) {})
			k.Run()
			k.Close()
		})
	}
	few, many := run(10), run(1000)
	if many != few {
		t.Errorf("1,000 arrivals allocated %.0f, 10 allocated %.0f: arrivals must allocate nothing", many, few)
	}
	if few > 9 {
		t.Errorf("a 10-arrival run allocated %.0f, want at most 9", few)
	}
}

// RunStep is Run with stepped requests, event for event: the same
// arrivals, the same seq per request and the same schedule hash, while its
// requests resume no coroutine. Each request waits a seq-dependent time,
// a zero wait included, so starts and ends interleave at shared instants.
func TestRunStepMatchesRun(t *testing.T) {
	run := func(stepped bool) (sim.Sched, []string, int) {
		k := sim.NewKernel()
		defer k.Close()
		g := New(simrand.New(3), Poisson{Rate: 2000})
		var ends []string
		wait := func(seq int) time.Duration { return time.Duration(seq%7) * 300 * time.Microsecond }
		if stepped {
			g.RunStep(k, 200*time.Millisecond, func(p *sim.Proc, seq int) {
				p.WakeAfter(wait(seq), func(p *sim.Proc) {
					ends = append(ends, fmt.Sprint(seq, p.Now()))
					p.Exit()
				})
			})
		} else {
			g.Run(k, 200*time.Millisecond, func(p *sim.Proc, seq int) {
				p.Sleep(wait(seq))
				ends = append(ends, fmt.Sprint(seq, p.Now()))
			})
		}
		k.Run()
		return k.Sched(), ends, g.Submitted
	}
	refSched, refEnds, refN := run(false)
	sched, ends, n := run(true)
	if sched.Hash != refSched.Hash || n != refN || fmt.Sprint(ends) != fmt.Sprint(refEnds) {
		t.Errorf("RunStep: hash %#x, %d requests; Run: hash %#x, %d requests", sched.Hash, n, refSched.Hash, refN)
	}
	if refN < 300 || sched.Resumes != 0 {
		t.Errorf("%d requests, %d resumes; want hundreds and none", refN, sched.Resumes)
	}
}
