package faas

// Per-function invocation statistics, mirroring Lambda's CloudWatch-style
// counters. They are how experiments observe cold-start rates and peak
// concurrency without instrumenting handlers.

import (
	"fmt"
	"time"
)

// FunctionStats are cumulative per-function counters.
type FunctionStats struct {
	Invocations     int64
	Errors          int64
	Timeouts        int64
	ColdStarts      int64
	PeakConcurrency int // high-water mark of simultaneous executions
	TotalTime       time.Duration
	BilledTime      time.Duration

	// inFlight is the platform-managed count of executions running now;
	// intervalPeak is its high-water mark since the last
	// TakePeakConcurrency call (the autoscaler's target-tracking signal);
	// provisioned counts the function's allocated provisioned containers.
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

// Stats returns a copy of the named function's counters. Counters are
// cumulative across deployments: replacing a function with Register keeps
// its history, like CloudWatch metrics keyed by function name.
func (pf *Platform) Stats(name string) (FunctionStats, error) {
	fn, ok := pf.functions[name]
	if !ok {
		return FunctionStats{}, fmt.Errorf("%w: %q", ErrNoSuchFunction, name)
	}
	return *fn.stats, nil
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

// TakePeakConcurrency returns the named function's peak simultaneous
// executions since the previous call (or since startup) and restarts the
// observation window at the current in-flight level. This is the
// target-tracking signal the provisioned-concurrency autoscaler consumes.
func (pf *Platform) TakePeakConcurrency(name string) (int, error) {
	fn, ok := pf.functions[name]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrNoSuchFunction, name)
	}
	peak := fn.stats.intervalPeak
	fn.stats.intervalPeak = fn.stats.inFlight
	return peak, nil
}
