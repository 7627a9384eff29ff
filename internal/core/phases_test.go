package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/sim"
)

// sampleByProc is the sampler sampleEvery replaced, kept as the reference
// for its event order: a process spawned at the call that sleeps to each
// tick and samples.
func sampleByProc(k *sim.Kernel, every, window time.Duration, fn func(now sim.Time)) {
	k.Spawn("sampler", func(p *sim.Proc) {
		for p.Now() < window {
			at := p.Now() + every
			if window-at < every {
				at = window
			}
			p.Sleep(at - p.Now())
			fn(p.Now())
		}
	})
}

// sampledInterleaving runs one scenario around sample and logs every event
// in dispatch order. Processes spawned before and after the sampler, and
// callbacks scheduled at setup and mid-run, all land on the tick instants;
// each tick also schedules a callback at the next tick's instant, so the
// order in which a tick samples and re-arms shows up in the log too.
func sampledInterleaving(sample func(k *sim.Kernel, every, window time.Duration, fn func(sim.Time))) []string {
	const every, window = 10 * time.Millisecond, 35 * time.Millisecond
	k := sim.NewKernel()
	defer k.Close()
	var log []string
	logf := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", k.Now())+fmt.Sprintf(format, args...))
	}
	at := func(t sim.Time, name string) { k.At(t, func() { logf("%s", name) }) }
	ticker := func(name string) func(*sim.Proc) {
		return func(p *sim.Proc) {
			for p.Now() <= window {
				logf("%s", name)
				at(p.Now()+every, name+"-cb")
				at(p.Now(), name+"-now")
				p.Sleep(every)
			}
		}
	}

	at(0, "setup-before-0")
	at(every, "setup-before")
	k.Spawn("before", ticker("before"))
	sample(k, every, window, func(now sim.Time) {
		logf("tick")
		at(now+every, "tick-cb")
	})
	k.Spawn("after", ticker("after"))
	at(0, "setup-after-0")
	at(every, "setup-after")
	at(window, "setup-window")
	k.RunUntil(sim.Time(2 * window))
	return log
}

// TestSampleEveryKeepsEventOrder pins the sampler's (time, seq) footprint:
// every event of a busy scenario dispatches in the same order as with the
// sleeping process it replaced.
func TestSampleEveryKeepsEventOrder(t *testing.T) {
	want := sampledInterleaving(sampleByProc)
	got := sampledInterleaving(sampleEvery)
	if !slices.Equal(got, want) {
		t.Fatalf("interleaving differs from the process sampler's:\ngot:\n%q\nwant:\n%q", got, want)
	}
	if !slices.Contains(want, "35ms tick") {
		t.Fatalf("no tick at the window's end:\n%q", want)
	}
}

// oddScale shrinks a 30s window to 6000000001ns, which is not a multiple
// of 3ns: three 2s thirds end 1ns short of the window.
const oddScale = 6000000001 / 30e9

// TestSampleEveryOddWindow: when every does not divide window, the last
// tick still lands exactly at window, and never in a fourth phase.
func TestSampleEveryOddWindow(t *testing.T) {
	window := time.Duration(float64(rfWindow) * oddScale)
	if window != 6000000001 {
		t.Fatalf("window = %d, want 6000000001", window)
	}
	for _, every := range []time.Duration{window / 3, 50 * time.Millisecond} {
		k := sim.NewKernel()
		var ticks []sim.Time
		sampleEvery(k, every, window, func(now sim.Time) { ticks = append(ticks, now) })
		k.Run()
		k.Close()
		if n := int(window / every); len(ticks) != n {
			t.Errorf("every %v: %d ticks, want %d", every, len(ticks), n)
		}
		if last := ticks[len(ticks)-1]; last != window {
			t.Errorf("every %v: last tick at %v, want %v", every, last, window)
		}
	}
}

// TestChaosRunnersAtOddWindow runs both chaos experiments at a window that
// is not a multiple of 3ns: each completes, and regionfailover settles a
// cost in each of its three phases.
func TestChaosRunnersAtOddWindow(t *testing.T) {
	rs := runRetryStorm(1, rsPolicies()[0], oddScale)
	if rs.phases[2].served == 0 {
		t.Errorf("retrystorm served nothing after the heal")
	}
	rf := runRegionFailover(1, true, oddScale)
	for i, c := range rf.cost {
		if c <= 0 {
			t.Errorf("regionfailover %s phase cost = %v, want > 0", faultPhases[i], c)
		}
	}
}
