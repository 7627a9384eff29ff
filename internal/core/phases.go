package core

import (
	"time"

	"repro/internal/sim"
)

// Phase accounting shared by the chaos experiments (regionfailover,
// retrystorm): each runs a measurement window whose fault covers the
// middle third, and reports every request in the third it arrived in.

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

// phaseCount tallies one phase's finished requests.
type phaseCount struct {
	served int
	failed int
}

// availPct is the served share of the phase's finished requests, as a
// percentage; a phase that finished nothing counts as fully available.
func (c phaseCount) availPct() float64 {
	if total := c.served + c.failed; total > 0 {
		return 100 * float64(c.served) / float64(total)
	}
	return 100
}
