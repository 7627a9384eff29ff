package core

import (
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Phase accounting shared by the chaos experiments (regionfailover,
// retrystorm): each runs a measurement window whose fault covers the
// middle third. A request counts in the phase it arrived in, a gauge in
// the phase of the instant it was read, and a $ delta in the phase of the
// sampling interval that ends at its tick (see sampleEvery).

// faultPhases labels the three measurement phases around the fault.
var faultPhases = [3]string{"pre", "during", "post"}

// faultPhase returns which third of window the instant now falls in: 0
// before the fault, 1 during it, 2 after the heal (the drain included).
func faultPhase(now sim.Time, window time.Duration) int {
	third := sim.Time(window / 3)
	switch {
	case now < third:
		return 0
	case now < 2*third:
		return 1
	default:
		return 2
	}
}

// tally is one request class's accounting: a latency recorder and the
// served and failed counts.
type tally struct {
	rec    *stats.Recorder
	served int
	failed int
}

// phaseTallies returns one tally per fault phase, recorders named
// prefix+phase.
func phaseTallies(prefix string) (ts [3]tally) {
	for i := range ts {
		ts[i].rec = stats.NewRecorder(prefix + faultPhases[i])
	}
	return ts
}

// done records one finished request: its latency, and whether it was
// served.
func (t *tally) done(d time.Duration, served bool) {
	t.rec.Add(d)
	if served {
		t.served++
	} else {
		t.failed++
	}
}

// availPct is the served share of the finished requests, as a percentage;
// a tally that finished nothing counts as fully available.
func (t *tally) availPct() float64 {
	if total := t.served + t.failed; total > 0 {
		return 100 * float64(t.served) / float64(total)
	}
	return 100
}

// sampleEvery calls fn every interval of sim time until window, as a chain
// of kernel callbacks. The call itself schedules one callback at the
// current instant, which schedules the first tick; each tick runs fn and
// then schedules the next. That is the (time, seq) footprint of a process
// spawned here that sleeps and samples in a loop, so every other event
// keeps its place. A tick that would leave less than a full interval
// before window moves to window itself: the last tick lands exactly there.
func sampleEvery(k *sim.Kernel, every, window time.Duration, fn func(now sim.Time)) {
	var tick func()
	next := func() {
		at := k.Now() + every
		if window-at < every {
			at = window
		}
		k.At(at, tick)
	}
	tick = func() {
		fn(k.Now())
		if k.Now() < window {
			next()
		}
	}
	k.At(k.Now(), next)
}
