package faas

// Per-function invocation statistics, mirroring Lambda's CloudWatch-style
// counters. They are how experiments observe cold-start rates and peak
// concurrency without instrumenting handlers.

import "fmt"

// FunctionStats are cumulative per-function counters.
type FunctionStats struct {
	Invocations     int64
	ColdStarts      int64
	PeakConcurrency int // high-water mark of simultaneous executions

	// inFlight is the platform-managed count of executions running now;
	// intervalPeak is its high-water mark since the last takePeak call
	// (the autoscaler's target-tracking signal); provisioned counts the
	// function's allocated provisioned containers, idle or
	// mid-invocation, so it reflects out-of-band destruction (a crashed
	// VM, an invocation timeout).
	inFlight     int
	intervalPeak int
	provisioned  int
}

// ColdStartRate returns the fraction of invocations that cold-started.
func (s FunctionStats) ColdStartRate() float64 {
	if s.Invocations == 0 {
		return 0
	}
	return float64(s.ColdStarts) / float64(s.Invocations)
}

// Stats returns a copy of the named function's counters.
func (pf *Platform) Stats(name string) (FunctionStats, error) {
	fn, ok := pf.functions[name]
	if !ok {
		return FunctionStats{}, fmt.Errorf("%w: %q", ErrNoSuchFunction, name)
	}
	return fn.stats, nil
}

// beginExecution admits one execution into the function's concurrency
// accounting (called after the account-concurrency slot is held, so the
// high-water marks measure actual simultaneous executions).
func (s *FunctionStats) beginExecution() {
	s.inFlight++
	if s.inFlight > s.PeakConcurrency {
		s.PeakConcurrency = s.inFlight
	}
	if s.inFlight > s.intervalPeak {
		s.intervalPeak = s.inFlight
	}
}

func (s *FunctionStats) endExecution() { s.inFlight-- }

// takePeak returns the function's peak simultaneous executions since the
// previous call (or since startup) and restarts the observation window at
// the current in-flight level. This is the target-tracking signal the
// provisioned-concurrency autoscaler consumes.
func (s *FunctionStats) takePeak() int {
	peak := s.intervalPeak
	s.intervalPeak = s.inFlight
	return peak
}
