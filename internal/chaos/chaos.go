// Package chaos injects faults into a running simulation: WAN partitions,
// VM crash storms, and compute slowdowns. Every injection is an ordinary
// simulator event — a process spawned on the kernel that sleeps until its
// scheduled instant and then mutates topology or platform state — so a
// chaotic run is exactly as deterministic as a healthy one: same seed,
// same faults, same nanoseconds, at any sweep worker count. Randomized
// schedules draw their entire timeline from the engine's RNG at call
// time (before the kernel runs), so the draw order never depends on
// event interleaving.
package chaos

import (
	"fmt"
	"time"

	"repro/internal/faas"
	"repro/internal/netsim"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// Event is one logged injection, for reports and debugging.
type Event struct {
	At   sim.Time
	What string
}

// Engine schedules fault injections on a kernel. Not safe for concurrent
// use; like the rest of the simulator it lives on one kernel's timeline.
type Engine struct {
	k       *sim.Kernel
	rng     *simrand.RNG
	slow    map[string]float64
	events  []Event
	n       int // injection counter, names the injector procs
	crashed int // VMs reclaimed by crash storms so far
}

// New creates an engine. The RNG is the engine's private fault source —
// fork it off the experiment seed so fault schedules are reproducible.
func New(k *sim.Kernel, rng *simrand.RNG) *Engine {
	return &Engine{k: k, rng: rng, slow: make(map[string]float64)}
}

// Events returns the injection log in occurrence order.
func (e *Engine) Events() []Event { return e.events }

// CrashedVMs reports how many VMs the engine's crash storms have reclaimed
// so far, summed over every CrashStormAt that has fired.
func (e *Engine) CrashedVMs() int { return e.crashed }

func (e *Engine) log(p *sim.Proc, format string, args ...any) {
	e.events = append(e.events, Event{At: p.Now(), What: fmt.Sprintf(format, args...)})
}

// spawn names and launches one injector process.
func (e *Engine) spawn(kind string, fn func(p *sim.Proc)) {
	e.n++
	e.k.Spawn(fmt.Sprintf("chaos/%s-%d", kind, e.n), fn)
}

// PartitionAt severs the WAN trunk between two regions at time `at` for
// `dur`, then heals it. Traffic in flight across the trunk stalls (or is
// lost, for messages) exactly as the fabric dictates.
func (e *Engine) PartitionAt(net *netsim.Network, a, b int, at, dur time.Duration) {
	e.spawn("partition", func(p *sim.Proc) {
		p.Sleep(at)
		net.PartitionRegions(a, b)
		e.log(p, "partition %d-%d", a, b)
		p.Sleep(dur)
		net.HealRegions(a, b)
		e.log(p, "heal %d-%d", a, b)
	})
}

// CrashStormAt reclaims n VMs from the platform at time `at` — containers
// on them are destroyed, in-flight invocations excepted, and the VMs never
// host again (the warm pool refills from fresh hosts).
func (e *Engine) CrashStormAt(pf *faas.Platform, n int, at time.Duration) {
	e.spawn("crash", func(p *sim.Proc) {
		p.Sleep(at)
		crashed := pf.CrashVMs(n)
		e.crashed += crashed
		e.log(p, "crash storm: %d VMs", crashed)
	})
}

// SlowNodeAt multiplies a node's compute time by `factor` (>1 = slower)
// from `at` until `at+dur`, then restores full speed — a straggler host.
func (e *Engine) SlowNodeAt(pf *faas.Platform, node *netsim.Node, factor float64, at, dur time.Duration) {
	e.spawn("slow", func(p *sim.Proc) {
		p.Sleep(at)
		pf.SetComputeSlowdown(node, factor)
		e.log(p, "slow %s ×%g", node.ID(), factor)
		p.Sleep(dur)
		pf.SetComputeSlowdown(node, 1)
		e.log(p, "restore %s", node.ID())
	})
}

// SlowFrontendAt multiplies a service front end's service times by
// `factor` (>1 = slower) from `at` until `at+dur`, then restores full
// speed — a degraded storage shard, the trigger for a retry storm.
func (e *Engine) SlowFrontendAt(fe *service.Frontend, factor float64, at, dur time.Duration) {
	e.spawn("slow-frontend", func(p *sim.Proc) {
		p.Sleep(at)
		fe.SetSlowdown(factor)
		e.log(p, "slow frontend %s ×%g", fe.Name(), factor)
		p.Sleep(dur)
		fe.SetSlowdown(1)
		e.log(p, "restore frontend %s", fe.Name())
	})
}

// SetSlow registers a named slowdown factor for consumers outside the faas
// platform (e.g. dataflow workers), effective immediately and until
// overwritten. factor 1 clears the entry.
func (e *Engine) SetSlow(name string, factor float64) {
	if factor <= 0 {
		panic("chaos: slowdown factor must be positive")
	}
	if factor == 1 {
		delete(e.slow, name)
		return
	}
	e.slow[name] = factor
}

// Slow returns the registered slowdown factor for name (1 when none).
func (e *Engine) Slow(name string) float64 {
	if f, ok := e.slow[name]; ok {
		return f
	}
	return 1
}

// RandomPartitions draws an alternating up/down schedule for the trunk
// between regions a and b over [0, horizon): exponential healthy periods
// of mean `meanUp`, then exponential outages of mean `meanDown`. The whole
// timeline is drawn from the engine RNG before the kernel runs, so the
// schedule is a pure function of the seed. Returns the number of outages
// scheduled.
func (e *Engine) RandomPartitions(net *netsim.Network, a, b int, horizon, meanUp, meanDown time.Duration) int {
	type window struct{ at, dur time.Duration }
	var outages []window
	t := time.Duration(0)
	for {
		t += time.Duration(e.rng.ExpFloat64() * float64(meanUp))
		if t >= horizon {
			break
		}
		down := time.Duration(e.rng.ExpFloat64() * float64(meanDown))
		if down < time.Millisecond {
			down = time.Millisecond
		}
		outages = append(outages, window{at: t, dur: down})
		t += down
	}
	for _, w := range outages {
		e.PartitionAt(net, a, b, w.at, w.dur)
	}
	return len(outages)
}
