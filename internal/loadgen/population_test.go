package loadgen

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

func TestBurstNegativeOffForPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative OffFor did not panic")
		}
	}()
	b := &Burst{On: Uniform{Interval: time.Millisecond},
		OnFor: 10 * time.Millisecond, OffFor: -time.Millisecond}
	b.Next(nil)
}

// TestQuickBurstWrapAround is the randomized wrap-around property: for any
// on/off windows and Poisson rate, every arrival time t satisfies
// t mod (OnFor+OffFor) < OnFor — arrivals never land in the off-window,
// even when a single gap spans several cycles.
func TestQuickBurstWrapAround(t *testing.T) {
	prop := func(seed uint64, onMs, offMs uint16, rateBase uint16) bool {
		onFor := time.Duration(onMs%500+1) * time.Millisecond
		offFor := time.Duration(offMs%2000) * time.Millisecond
		rate := float64(rateBase%900 + 100) // 100–999 req/s
		rng := simrand.New(seed)
		b := &Burst{On: Poisson{Rate: rate}, OnFor: onFor, OffFor: offFor}
		cycle := onFor + offFor
		var now time.Duration
		for i := 0; i < 500; i++ {
			now += b.Next(rng)
			if now%cycle >= onFor {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPopulationValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("zero clients", func() {
		NewPopulation(simrand.New(1), simrand.New(2), 0, 1)
	})
	expectPanic("zero rate", func() {
		NewPopulation(simrand.New(1), simrand.New(2), 10, 0)
	})
}

// TestPopulationMatchesGeneratorArrivals is the equivalence test between
// the aggregated and per-arrival modes: with a shared gap-RNG seed, a
// Population of N clients must produce bit-identical arrival times (and
// count) to a per-arrival Generator over Poisson at the aggregate rate —
// superposition is exact here, not just statistical.
func TestPopulationMatchesGeneratorArrivals(t *testing.T) {
	const (
		clients = 1000
		ratePer = 1.0 // aggregate 1000 req/s
		window  = 2 * time.Second
	)

	genTimes := map[int]sim.Time{}
	k1 := sim.NewKernel()
	g := New(simrand.New(11), Poisson{Rate: ratePer * clients})
	g.Run(k1, window, func(p *sim.Proc, seq int) { genTimes[seq] = p.Now() })
	k1.Run()
	k1.Close()

	popTimes := map[int]sim.Time{}
	popClients := map[int]int{}
	k2 := sim.NewKernel()
	pop := NewPopulation(simrand.New(11), simrand.New(99), clients, ratePer)
	pop.Run(k2, window, func(p *sim.Proc, seq, client int) {
		popTimes[seq] = p.Now()
		popClients[seq] = client
	})
	k2.Run()
	k2.Close()

	if pop.Submitted != g.Submitted || len(popTimes) != len(genTimes) {
		t.Fatalf("Submitted: population %d (%d submits) vs generator %d (%d submits)",
			pop.Submitted, len(popTimes), g.Submitted, len(genTimes))
	}
	if pop.Submitted < 1800 || pop.Submitted > 2200 {
		t.Errorf("Submitted = %d, want ~2000 at 1000/s over 2s", pop.Submitted)
	}
	if pop.Late != 0 {
		t.Errorf("Late = %d with a no-op submit, want 0", pop.Late)
	}
	for seq, at := range genTimes {
		if popTimes[seq] != at {
			t.Fatalf("seq %d arrived at %v in population mode vs %v per-arrival",
				seq, popTimes[seq], at)
		}
	}
	for seq, c := range popClients {
		if c < 0 || c >= clients {
			t.Fatalf("seq %d assigned to out-of-range client %d", seq, c)
		}
	}
}

// TestPopulationStatisticalEquivalence checks the distributional side of
// the seam: per-100ms-window arrival counts match the per-arrival mode
// exactly (they share arrival times), and the inter-arrival moments match
// the exponential law at the aggregate rate.
func TestPopulationStatisticalEquivalence(t *testing.T) {
	const (
		clients = 500
		ratePer = 4.0 // aggregate 2000 req/s
		window  = 4 * time.Second
		binSize = 100 * time.Millisecond
	)
	arrivals := make([]time.Duration, 0, 9000)
	k := sim.NewKernel()
	defer k.Close()
	pop := NewPopulation(simrand.New(5), simrand.New(6), clients, ratePer)
	pop.Run(k, window, func(p *sim.Proc, seq, client int) {
		arrivals = append(arrivals, time.Duration(p.Now()))
	})
	k.Run()

	bins := make([]int, int(window/binSize))
	var gapSum, gapSq float64
	for i, at := range arrivals {
		bins[int(at/binSize)]++
		if i > 0 {
			gap := (at - arrivals[i-1]).Seconds()
			gapSum += gap
			gapSq += gap * gap
		}
	}
	// Each 100ms bin expects 200 arrivals, sd ~14; ±5σ keeps the seed-
	// pinned run deterministic while catching clock or batching bugs.
	for i, n := range bins {
		if n < 130 || n > 270 {
			t.Errorf("bin %d: %d arrivals, want ~200", i, n)
		}
	}
	n := float64(len(arrivals) - 1)
	meanGap := gapSum / n
	if math.Abs(meanGap-1.0/2000) > 0.0001 {
		t.Errorf("mean inter-arrival %vs, want ~0.0005s", meanGap)
	}
	// Exponential law: stddev equals the mean.
	sd := math.Sqrt(gapSq/n - meanGap*meanGap)
	if sd < meanGap*0.9 || sd > meanGap*1.1 {
		t.Errorf("inter-arrival stddev %vs vs mean %vs, want ≈ equal (exponential)", sd, meanGap)
	}
}

// TestPopulationMaxProcsBudget pins the fan-out cap: with ~10k arrivals
// at 1s of service each, at most MaxProcs requests are ever in flight,
// every submitted request still completes (late, not dropped), and
// lateness is counted.
func TestPopulationMaxProcsBudget(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	pop := NewPopulation(simrand.New(3), simrand.New(4), 100, 50) // 5000 req/s
	inflight, peak, completed := 0, 0, 0
	pop.Run(k, 2*time.Second, func(p *sim.Proc, seq, client int) {
		inflight++
		if inflight > peak {
			peak = inflight
		}
		p.Sleep(time.Second) // 5000/s × 1s service ≫ MaxProcs slots
		inflight--
		completed++
	})
	k.Run()
	if peak > MaxProcs {
		t.Errorf("peak in-flight %d exceeds MaxProcs=%d", peak, MaxProcs)
	}
	if completed != pop.Submitted {
		t.Errorf("completed %d of %d submitted", completed, pop.Submitted)
	}
	if pop.Late == 0 {
		t.Error("saturated budget reported no late submissions")
	}
}

// TestPopulationLatchReleasesAtWindowEnd mirrors the Generator latch test:
// the latch promises the end of the generation window, exactly.
func TestPopulationLatchReleasesAtWindowEnd(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	pop := NewPopulation(simrand.New(5), simrand.New(6), 10, 0.5) // sparse: 5/s
	done := pop.Run(k, time.Second, func(p *sim.Proc, seq, client int) {})
	released := sim.Time(-1)
	k.Spawn("watch", func(p *sim.Proc) {
		done.Wait(p)
		released = p.Now()
	})
	k.Run()
	if released != sim.Time(time.Second) {
		t.Errorf("done latch released at %v, want exactly 1s", released)
	}
}
