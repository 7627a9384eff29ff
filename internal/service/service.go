// Package service is the shared front-end fabric for the simulated managed
// services (kvstore, objectstore, queue). Each service front end owns the
// same four things — a network endpoint, a deterministic service-time
// stream, pricing/metering hooks, and (optionally) a finite number of
// request slots — and before this package existed each service reimplemented
// them with copy-pasted round-trip boilerplate.
//
// A Frontend models one endpoint node: requests pay a one-way propagation
// delay in, a sampled op-latency service time, and a one-way delay back.
// Services that split their service time around a blocking poll (SQS long
// polling) use SampleOp with the InLeg/OutLeg halves instead of RoundTrip,
// waiting each leg out themselves.
//
// With LimitConcurrency set, the front end becomes a finite-capacity
// server: at most n requests are in service simultaneously and the rest
// queue FIFO. This is what gives a single partition a real throughput
// ceiling — and what makes horizontal sharding (multiple frontends behind
// one logical service) show up as aggregate capacity in the region-scale
// benchmark. The default (unlimited) preserves the calibrated Table-1
// behavior bit for bit.
package service

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// Stats summarizes a front end's request traffic (the hot-shard surface).
type Stats struct {
	// Requests counts service-time samples, i.e. API round trips served.
	Requests int64
	// Busy is the cumulative service time spent on those requests.
	Busy time.Duration
	// Shed counts requests rejected on arrival because the admission queue
	// was full; Jailed counts requests rejected by the rate-window ban
	// list. Both are zero unless SetAdmission enables them.
	Shed, Jailed int64
}

// Frontend is one service endpoint: a node on the network, an op-latency
// distribution sampled from its own RNG stream, and metering hooks.
type Frontend struct {
	name    string
	net     *netsim.Network
	node    *netsim.Node
	rng     *simrand.RNG
	opLat   simrand.Dist
	catalog *pricing.Catalog
	meter   *pricing.Meter
	slots   *sim.Resource // nil = unlimited concurrency
	adm     *admission    // nil = no admission control
	slow    float64       // chaos service-time multiplier; <=0 or 1 = normal
	stats   Stats

	// The round trip's steps (see RoundTripErr), bound once here so that a
	// trip allocates nothing.
	arriveStep, serveStep, finishStep func(*sim.Proc)
}

// NewFrontend registers a front-end node named name in rack rack with a NIC
// of capacity nic. Service times are drawn from opLat using rng; charges go
// to meter at catalog prices.
func NewFrontend(name string, net *netsim.Network, rack int, rng *simrand.RNG,
	opLat simrand.Dist, nic netsim.Bps, catalog *pricing.Catalog,
	meter *pricing.Meter) *Frontend {
	f := &Frontend{
		name:    name,
		net:     net,
		node:    net.NewNode(name, rack, nic),
		rng:     rng,
		opLat:   opLat,
		catalog: catalog,
		meter:   meter,
	}
	f.bindSteps()
	return f
}

// LimitConcurrency caps how many requests may be in service at once; excess
// requests queue FIFO at the front end. n <= 0 restores the unlimited
// default. Call before traffic starts.
//
// The cap applies to RoundTrip only. The split-leg path (SampleOp +
// InLeg/OutLeg) deliberately bypasses it: a long poll parks at the front
// end for up to its wait time, and counting that parked time against a
// service slot would let idle pollers starve real requests.
func (f *Frontend) LimitConcurrency(n int) {
	if n <= 0 {
		f.slots = nil
		return
	}
	f.slots = sim.NewResource(n)
}

// Name returns the front end's node name.
func (f *Frontend) Name() string { return f.name }

// Node returns the front end's network endpoint.
func (f *Frontend) Node() *netsim.Node { return f.node }

// Net returns the network the front end is attached to.
func (f *Frontend) Net() *netsim.Network { return f.net }

// RNG returns the front end's private random stream (for service-side
// probabilistic behavior such as stale-replica reads).
func (f *Frontend) RNG() *simrand.RNG { return f.rng }

// Catalog returns the price catalog charges are computed from.
func (f *Frontend) Catalog() *pricing.Catalog { return f.catalog }

// Meter returns the cost meter charges accumulate on.
func (f *Frontend) Meter() *pricing.Meter { return f.meter }

// Stats returns the front end's traffic counters.
func (f *Frontend) Stats() Stats { return f.stats }

// QueueDepth reports how many requests are waiting for a service slot
// (always 0 without LimitConcurrency).
func (f *Frontend) QueueDepth() int {
	if f.slots == nil {
		return 0
	}
	return f.slots.Waiting()
}

// Charge records count units of item at unitCost each on the meter.
func (f *Frontend) Charge(item string, count int64, unitCost pricing.USD) {
	f.meter.Charge(item, count, unitCost)
}

// ChargeCost records a lump-sum cost against item.
func (f *Frontend) ChargeCost(item string, cost pricing.USD) {
	f.meter.ChargeCost(item, cost)
}

// SampleOp draws one service time and accounts it to the front end's stats.
// Requests that split their service time around a poll (long polling) call
// this once and spend the halves via InLeg/OutLeg. A chaos SetSlowdown
// factor scales the sample (and the Busy accounting) here, so both the
// round-trip and split-leg paths degrade together.
func (f *Frontend) SampleOp() time.Duration {
	svc := f.opLat.Sample(f.rng)
	if f.slow > 0 && f.slow != 1 {
		svc = time.Duration(float64(svc) * f.slow)
	}
	f.stats.Requests++
	f.stats.Busy += svc
	return svc
}

// RoundTrip models one complete request from caller: propagation to the
// front end, service time (plus extra, e.g. per-item scan cost), and
// propagation back. With LimitConcurrency set, the service-time portion
// occupies one of the finite slots.
//
// RoundTrip cannot report admission rejections; enabling SetAdmission on a
// front end whose callers use this void path is a configuration error and
// panics at the first rejection. Use RoundTripErr on admission-controlled
// services.
func (f *Frontend) RoundTrip(p *sim.Proc, caller *netsim.Node, extra time.Duration) {
	if err := f.RoundTripErr(p, caller, extra); err != nil {
		panic("service: " + f.name + ": admission rejection on the void RoundTrip path (caller must use RoundTripErr): " + err.Error())
	}
}

// RoundTripErr is RoundTrip with admission control: after paying the
// inbound propagation delay, the request passes the jail and shed checks
// (see SetAdmission) and is rejected with ErrJailed/ErrShed — paying only
// the propagation back, never a service slot or a service-time sample — or
// proceeds exactly as RoundTrip. Without SetAdmission it never returns an
// error.
//
// The caller's process parks once. Everything between the legs is
// kernel-side work, so it runs as a chain of steps (see sim.Proc.WakeAfter)
// at the events where the process would have resumed: arrive, serve and
// finish (see bindSteps). The trip keeps the caller in p.Trip.Ref, and its
// error there once the return leg is scheduled, and extra in p.Trip.D.
func (f *Frontend) RoundTripErr(p *sim.Proc, caller *netsim.Node, extra time.Duration) error {
	p.Trip = sim.Trip{Ref: caller, D: extra}
	p.WakeAfter(f.net.OneWayDelay(caller, f.node), f.arriveStep)
	p.Park()
	err, _ := p.Trip.Ref.(error)
	p.Trip = sim.Trip{}
	return err
}

// bindSteps builds the round trip's steps once per frontend, so a trip
// allocates nothing. They are closures over f, not method values: a step
// that Park runs sits on the caller's coroutine stack, and a method value
// would add a wrapper frame there. Each step's schedule calls and draws are
// the ones the blocking round trip made at the same event, in the same
// order, so the event order is unchanged.
func (f *Frontend) bindSteps() {
	// arrive ends the request leg: admission, then a slot now or a place
	// in the slot queue, whose grant runs serve. A rejected request takes
	// the return leg at once. It repeats serve's three lines rather than
	// calling it: arrive often runs inside Park, on the caller's stack, and
	// retrystorm's processes sit within about 120 bytes of outgrowing their
	// 2 KB stacks there, which one more frame crosses.
	f.arriveStep = func(p *sim.Proc) {
		caller := p.Trip.Ref.(*netsim.Node)
		if err := f.admit(p, caller); err != nil {
			p.Trip.Ref = err
			p.WakeAfter(f.net.OneWayDelay(f.node, caller), nil)
			return
		}
		if f.slots == nil || f.slots.AcquireStep(p, f.serveStep) {
			svc := f.SampleOp()
			f.stats.Busy += p.Trip.D
			p.WakeAfter(svc+p.Trip.D, f.finishStep)
		}
	}
	// serve starts the service time of a request granted a queued slot.
	f.serveStep = func(p *sim.Proc) {
		svc := f.SampleOp()
		f.stats.Busy += p.Trip.D
		p.WakeAfter(svc+p.Trip.D, f.finishStep)
	}
	// finish ends the service time: the slot goes back, and the response
	// leg resumes the caller.
	f.finishStep = func(p *sim.Proc) {
		if f.slots != nil {
			f.slots.Release()
		}
		caller := p.Trip.Ref.(*netsim.Node)
		p.Trip.Ref = nil
		p.WakeAfter(f.net.OneWayDelay(f.node, caller), nil)
	}
}

// InLeg returns the length of a split round trip's request leg:
// propagation from the caller, drawn now, plus the given share of service
// time. The caller waits it out as one sleep or one step's wake-up.
func (f *Frontend) InLeg(caller *netsim.Node, service time.Duration) time.Duration {
	return f.net.OneWayDelay(caller, f.node) + service
}

// OutLeg returns the length of a split round trip's response leg: the
// remaining service time plus propagation back to the caller, drawn now.
func (f *Frontend) OutLeg(caller *netsim.Node, service time.Duration) time.Duration {
	return service + f.net.OneWayDelay(f.node, caller)
}
