package faas

// Target-tracking autoscaler for provisioned concurrency, modeled on AWS
// Application Auto Scaling's ProvisionedConcurrencyUtilization policy: a
// control-loop process samples the function's peak simultaneous executions
// each interval and steers the provisioned warm pool toward
//
//	provisioned = ceil(peak concurrency / TargetUtilization)
//
// clamped to [Min, Max]. Scale-out provisions new containers (paying the
// cold-start latency off the request path); scale-in retires idle
// provisioned containers, newest first, deferring any that are mid-
// invocation to a later tick. The point for the paper's story: cold starts
// — the latency half of §3's critique — can be bought away at a metered
// keep-warm price, and the faasscale experiment prices that trade.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// AutoscalerConfig parameterizes a provisioned-concurrency autoscaler.
type AutoscalerConfig struct {
	// Function is the registered function to scale.
	Function string
	// Min and Max bound the provisioned-concurrency target (0 <= Min <= Max).
	Min, Max int
	// TargetUtilization is the desired ratio of peak concurrency to
	// provisioned containers, in (0, 1]. AWS's default policy uses 0.7.
	TargetUtilization float64
	// Interval is the control-loop period (default 10s).
	Interval time.Duration
	// ScaleInCooldown is how long demand must stay below the current
	// target before the pool shrinks (default 3x Interval). Scale-out is
	// always immediate.
	ScaleInCooldown time.Duration
}

// Autoscaler is a running provisioned-concurrency control loop.
type Autoscaler struct {
	pf      *Platform
	fn      *Function
	cfg     AutoscalerConfig
	target  int
	stopped bool
}

// Autoscale starts a target-tracking autoscaler for the named function's
// provisioned concurrency. The control loop runs on the platform's kernel
// until Stop.
func (pf *Platform) Autoscale(cfg AutoscalerConfig) (*Autoscaler, error) {
	fn, ok := pf.functions[cfg.Function]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchFunction, cfg.Function)
	}
	if cfg.Min < 0 || cfg.Max < cfg.Min {
		return nil, fmt.Errorf("faas: autoscaler bounds %d..%d invalid", cfg.Min, cfg.Max)
	}
	if cfg.TargetUtilization <= 0 || cfg.TargetUtilization > 1 {
		return nil, fmt.Errorf("faas: target utilization %.2f outside (0, 1]", cfg.TargetUtilization)
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.ScaleInCooldown <= 0 {
		cfg.ScaleInCooldown = 3 * cfg.Interval
	}
	a := &Autoscaler{pf: pf, fn: fn, cfg: cfg}
	pf.net.Kernel().Spawn("autoscaler/"+cfg.Function, a.run)
	return a, nil
}

// Target reports the current provisioned-concurrency target.
func (a *Autoscaler) Target() int { return a.target }

// Stop halts the control loop after its current tick. Provisioned
// containers already allocated stay (and keep billing) until retired.
func (a *Autoscaler) Stop() { a.stopped = true }

func (a *Autoscaler) run(p *sim.Proc) {
	if a.cfg.Min > 0 {
		a.target = a.cfg.Min
		if err := a.pf.ProvisionConcurrency(p, a.cfg.Function, a.cfg.Min); err != nil {
			panic("faas: autoscaler initial provision: " + err.Error())
		}
	}
	// Discard concurrency observed before the loop's first full interval.
	a.fn.stats.takePeak()
	lastDemand := p.Now()
	for !a.stopped {
		p.Sleep(a.cfg.Interval)
		if a.stopped {
			return
		}
		peak := a.fn.stats.takePeak()
		// Reconcile with reality before acting: provisioned containers
		// can be destroyed out-of-band (a crash storm destroys idle ones,
		// a timeout kills the container it ran in), and the loop must
		// replace them rather than trust its own last target.
		if actual := a.fn.stats.provisioned; actual < a.target {
			a.target = actual
		}
		desired := int(math.Ceil(float64(peak) / a.cfg.TargetUtilization))
		if desired > a.cfg.Max {
			desired = a.cfg.Max
		}
		if desired < a.cfg.Min {
			desired = a.cfg.Min
		}
		if desired >= a.target {
			lastDemand = p.Now()
		}
		switch {
		case desired > a.target:
			n := desired - a.target
			a.target = desired
			if err := a.pf.ProvisionConcurrency(p, a.cfg.Function, n); err != nil {
				panic("faas: autoscaler scale-out: " + err.Error())
			}
		case desired < a.target && p.Now()-lastDemand >= a.cfg.ScaleInCooldown:
			// Only idle provisioned containers can be retired now; any
			// shortfall stays in the target and is retried next tick.
			if removed := a.pf.RetireProvisioned(a.cfg.Function, a.target-desired); removed > 0 {
				a.target -= removed
			}
		}
	}
}
