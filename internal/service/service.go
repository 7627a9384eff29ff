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
	arriveStep, serveStep, finishStep, endStep func(*sim.Proc)
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
// factor scales the sample here, so both the round-trip and split-leg paths
// degrade together.
func (f *Frontend) SampleOp() time.Duration {
	svc := f.opLat.Sample(f.rng)
	if f.slow > 0 && f.slow != 1 {
		svc = time.Duration(float64(svc) * f.slow)
	}
	f.stats.Requests++
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
// The caller's process parks once: RoundTripErr is the round trip
// RoundTripStep makes, with the body to wake into, then Park and TripErr.
func (f *Frontend) RoundTripErr(p *sim.Proc, caller *netsim.Node, extra time.Duration) error {
	p.Trip = sim.Trip{Ref: caller, D: extra}
	p.WakeAfter(f.net.OneWayDelay(caller, f.node), f.arriveStep)
	p.Park()
	return TripErr(p)
}

// A Caller is the client end of a round trip made from a step: Node is
// the node the request comes from, and TripEnd the step that the trip's
// end, the response leg or a rejection's return leg, wakes the process
// into. TripEnd reads the outcome with TripErr.
//
// The trip keeps the Caller in p.Trip.Ref from its start to TripEnd, so a
// Caller is typically a pointer to the stepping process's own record: the
// step it wakes into is a method of that record, bound to no closure, and
// records that come and go with their trips allocate no step each.
type Caller interface {
	Node() *netsim.Node
	TripEnd(p *sim.Proc)
}

// RoundTripStep is RoundTripErr for a step (see sim.Proc.WakeAfter), which
// must not park: it starts a round trip from c.Node(), and the wake-up that
// ends it runs c.TripEnd.
//
// Both start the same chain of steps. Everything between the legs is
// kernel-side work, so it runs as steps at the events where a blocking
// round trip would have resumed: arrive, serve and finish (see bindSteps).
// The trip keeps its caller in p.Trip.Ref, the node for a blocking trip and
// the Caller for a stepped one. p.Trip.D holds extra until the return leg
// is scheduled, and the trip's outcome from then on (see TripErr).
func (f *Frontend) RoundTripStep(p *sim.Proc, c Caller, extra time.Duration) {
	p.Trip = sim.Trip{Ref: c, D: extra}
	p.WakeAfter(f.net.OneWayDelay(c.Node(), f.node), f.arriveStep)
}

// tripCaller returns the node a trip in flight came from.
func tripCaller(ref any) *netsim.Node {
	if n, ok := ref.(*netsim.Node); ok {
		return n
	}
	return ref.(Caller).Node()
}

// tripThen returns the step a trip in flight wakes into at its end: nil,
// the body, for a blocking trip, or endStep, the Caller's TripEnd.
func (f *Frontend) tripThen(ref any) func(*sim.Proc) {
	if _, ok := ref.(*netsim.Node); ok {
		return nil
	}
	return f.endStep
}

// The outcomes a trip carries in p.Trip.D once its return leg is
// scheduled: served, or the admission rejection it met.
const (
	tripServed time.Duration = iota
	tripShed
	tripJailed
)

// TripErr ends a round trip, once it has woken the caller: it returns the
// admission rejection (ErrShed or ErrJailed) or nil, and clears p.Trip.
func TripErr(p *sim.Proc) error {
	var err error
	switch p.Trip.D {
	case tripShed:
		err = ErrShed
	case tripJailed:
		err = ErrJailed
	}
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
	// the return leg at once. It repeats serve's two lines rather than
	// calling it: arrive often runs inside Park, on a blocking caller's
	// stack, and pooled 2 KB stacks had less than 96 bytes to spare there
	// when retrystorm's attempts still parked in Get (a frame padded by
	// 96 bytes in arrive grew them), which one more frame would take.
	f.arriveStep = func(p *sim.Proc) {
		caller := tripCaller(p.Trip.Ref)
		if err := f.admit(p, caller); err != nil {
			p.Trip.D = tripShed
			if err == ErrJailed {
				p.Trip.D = tripJailed
			}
			p.WakeAfter(f.net.OneWayDelay(f.node, caller), f.tripThen(p.Trip.Ref))
			return
		}
		if f.slots == nil || f.slots.AcquireStep(p, f.serveStep) {
			svc := f.SampleOp()
			p.WakeAfter(svc+p.Trip.D, f.finishStep)
		}
	}
	// serve starts the service time of a request granted a queued slot.
	f.serveStep = func(p *sim.Proc) {
		svc := f.SampleOp()
		p.WakeAfter(svc+p.Trip.D, f.finishStep)
	}
	// finish ends the service time: the slot goes back, and the response
	// leg wakes the caller.
	f.finishStep = func(p *sim.Proc) {
		if f.slots != nil {
			f.slots.Release()
		}
		p.WakeAfter(f.net.OneWayDelay(f.node, tripCaller(p.Trip.Ref)), f.tripThen(p.Trip.Ref))
		p.Trip.D = tripServed
	}
	// end is a stepped trip's end: the Caller's own step.
	f.endStep = func(p *sim.Proc) { p.Trip.Ref.(Caller).TripEnd(p) }
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
