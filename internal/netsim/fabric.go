// Package netsim models the datacenter network: shared-capacity links with
// max-min fair bandwidth allocation, and a topology with latency classes
// (same host / same rack / cross rack).
//
// Bulk transfers are simulated with a fluid-flow model: every active flow
// crosses one or more links, each link's capacity is divided among its flows
// by progressive water-filling (true max-min fairness), and flow rates are
// recomputed whenever a flow starts or finishes. This is the mechanism that
// makes the paper's observation — per-function bandwidth collapsing from
// 538 Mbps to ~28 Mbps when 20 functions share a VM's NIC — an emergent
// property of the simulation rather than a constant.
//
// The engine is flat and incremental, mirroring the internal/sim kernel
// playbook: flows live as values in an arena with an embedded free list and
// int32 ids, per-link membership is an attach-ordered id slice, the solver
// water-fills over epoch-stamped scratch held inside the Link and flow
// slots, and a flow start/finish re-solves only the connected component of
// links reachable from the touched flow — rates of unaffected components
// carry forward bit-identically. The steady-state transfer start/progress/
// complete cycle performs zero heap allocations (gated in CI). See
// DESIGN.md "Fabric internals" for the determinism argument.
package netsim

import (
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
)

// Bps is link capacity in bytes per second.
type Bps float64

// Mbps converts megabits per second into Bps.
func Mbps(v float64) Bps { return Bps(v * 1e6 / 8) }

// Gbps converts gigabits per second into Bps.
func Gbps(v float64) Bps { return Mbps(v * 1000) }

// MBps converts megabytes per second into Bps.
func MBps(v float64) Bps { return Bps(v * 1e6) }

// Link is a shared transmission resource with finite capacity. Links are
// created through a Fabric and must not be shared across fabrics.
type Link struct {
	name     string
	capacity Bps
	// flowIDs is the set of flows currently crossing the link, in attach
	// order — the order completions are released in and the order the
	// solver freezes a bottleneck's flows in.
	flowIDs []int32

	// Solver scratch, valid only for the epoch stamped in mark: free is the
	// unassigned capacity and unfrozen the number of member flows without a
	// rate yet. Keeping the scratch inside the Link (instead of per-solve
	// maps) is what makes a re-solve allocation-free.
	mark     uint64
	free     float64
	unfrozen int32
}

// Name returns the label given at creation.
func (l *Link) Name() string { return l.name }

// Capacity returns the link's total capacity.
func (l *Link) Capacity() Bps { return l.capacity }

// SetCapacity changes the link's capacity; rates of in-flight flows are
// re-derived immediately. Only the link's connected component is
// re-solved.
//
// A capacity of zero severs the link: water-filling hands its flows a fair
// share of zero, so they stall in place — remaining bytes frozen — until a
// later SetCapacity restores service. This is the WAN-partition primitive:
// a partition is one O(touched component) re-solve, not a topology rebuild.
func (l *Link) SetCapacity(f *Fabric, c Bps) {
	if c < 0 {
		panic("netsim: link capacity must be non-negative")
	}
	l.capacity = c
	f.seedLinks = append(f.seedLinks[:0], l)
	f.recomputeSeeded()
}

// noFlow is the nil value for flow-arena indices.
const noFlow int32 = -1

// flowSlot is one in-flight bulk transfer, stored by value in the fabric's
// arena. Freed slots thread onto the free list via next and are recycled by
// the next start, so steady-state transfer churn allocates nothing.
type flowSlot struct {
	links     []*Link // crossed links; backing array reused across lives
	remaining float64 // bytes
	rate      Bps
	updated   sim.Time
	// done wakes the blocking Transfer caller (at most one waiter); its
	// waiter storage is recycled by sim.Signal across slot reuses. ext is
	// the escaping latch handed out by TransferAsync — allocated per call,
	// because callers may hold it past the flow's lifetime.
	done sim.Signal
	ext  *sim.Latch
	next int32 // free-list link while the slot is idle

	// Solver scratch: seen stamps BFS component discovery, frozen stamps
	// rate assignment, both valid only for the fabric's current epoch.
	seen   uint64
	frozen uint64
}

// Fabric owns the flows crossing a set of links. Links are created through
// NewLink but the fabric only tracks links that currently carry flows, so
// short-lived per-connection limiter links cost nothing once idle.
//
// A Fabric's state is confined to the kernel's single-threaded event world:
// all methods must be called from process or event context.
type Fabric struct {
	k *sim.Kernel
	// completion fires at the estimated next flow-completion time. Every
	// recompute moves the single reusable timer instead of abandoning a
	// dead event in the kernel queue.
	completion *sim.Timer

	flows    []flowSlot
	freeFlow int32   // head of the slot free list
	order    []int32 // active flow ids in attach order

	// epoch brands the per-link and per-flow solver scratch; bumping it is
	// how a new solve invalidates old stamps without clearing anything.
	epoch uint64
	// Reusable scratch: seedLinks carries the links touched by the current
	// event into the solver, compLinks doubles as BFS queue and visited
	// component links, compFlows is the component's flows in discovery
	// order.
	seedLinks []*Link
	compLinks []*Link
	compFlows []int32
}

// NewFabric returns an empty fabric bound to kernel k.
func NewFabric(k *sim.Kernel) *Fabric {
	f := &Fabric{k: k, freeFlow: noFlow}
	f.completion = k.NewTimer(f.recompute)
	return f
}

// NewLink creates a link with the given capacity.
func (f *Fabric) NewLink(name string, capacity Bps) *Link {
	if capacity <= 0 {
		panic("netsim: link capacity must be positive")
	}
	return &Link{name: name, capacity: capacity}
}

// InFlight reports the number of active flows in the fabric.
func (f *Fabric) InFlight() int { return len(f.order) }

// Transfer moves size bytes across the given links, blocking the calling
// process until the transfer completes. A transfer of zero bytes (or with no
// links) completes immediately. The elapsed virtual time reflects max-min
// fair sharing with every other concurrent transfer.
func (f *Fabric) Transfer(p *sim.Proc, size int64, links ...*Link) {
	if !f.TransferStep(p, size, nil, links...) {
		p.Park()
	}
}

// TransferStep is Transfer for a step (see sim.Proc.WakeAfter), which must
// not park. An empty transfer reports true at once, as Transfer returns at
// once. Any other starts its flow and reports false, and the flow's
// completion runs step (or resumes the body when step is nil) at the event
// where Transfer would have returned. A flow of at least one byte over at
// least one link never completes within the call.
func (f *Fabric) TransferStep(p *sim.Proc, size int64, step func(*sim.Proc), links ...*Link) bool {
	id := f.start(size, links)
	if id == noFlow {
		return true
	}
	// The slot cannot complete between start and the wait (its remaining
	// is >= 1 byte and no event runs in between), so the signal is armed
	// before any completion can fire it.
	f.flows[id].done.WaitStep(p, step)
	return false
}

// TransferAsync begins a transfer and returns a latch that is released on
// completion (already released for empty transfers). The latch is allocated
// per call because it may outlive the flow; the blocking Transfer path
// stays allocation-free.
func (f *Fabric) TransferAsync(size int64, links ...*Link) *sim.Latch {
	l := &sim.Latch{}
	id := f.start(size, links)
	if id == noFlow {
		l.Release()
		return l
	}
	f.flows[id].ext = l
	return l
}

// start attaches a new flow and re-solves its component. It returns noFlow
// for empty transfers.
func (f *Fabric) start(size int64, links []*Link) int32 {
	if size <= 0 || len(links) == 0 {
		return noFlow
	}
	id := f.alloc()
	s := &f.flows[id]
	s.links = append(s.links[:0], links...)
	s.remaining = float64(size)
	s.rate = 0
	s.updated = f.k.Now()
	f.order = append(f.order, id)
	for i, l := range links {
		// Membership is a set: a caller listing the same link twice joins
		// it once (the freshly allocated id cannot already be a member, so
		// only the flow's own short link list needs checking).
		if !dupLink(links, i) {
			l.flowIDs = append(l.flowIDs, id)
		}
	}
	f.seedLinks = append(f.seedLinks[:0], links...)
	f.recomputeSeeded()
	return id
}

// alloc takes a slot off the free list, or extends the arena.
func (f *Fabric) alloc() int32 {
	if f.freeFlow != noFlow {
		id := f.freeFlow
		f.freeFlow = f.flows[id].next
		return id
	}
	f.flows = append(f.flows, flowSlot{next: noFlow})
	return int32(len(f.flows) - 1)
}

// removeID deletes the first occurrence of id, preserving order (attach
// order is the completion-release order, so a swap-remove would reintroduce
// the nondeterminism this engine pins down).
func removeID(ids []int32, id int32) []int32 {
	for i, v := range ids {
		if v == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// advance charges each active flow for progress made since its last update.
func (f *Fabric) advance() {
	now := f.k.Now()
	for _, id := range f.order {
		s := &f.flows[id]
		if dt := now - s.updated; dt > 0 && s.rate > 0 {
			s.remaining -= float64(s.rate) * dt.Seconds()
			if s.remaining < 0 {
				s.remaining = 0
			}
		}
		s.updated = now
	}
}

// completeDrained releases every flow that has drained (within half a byte
// of zero) in attach order — the deterministic completion contract: when
// several flows finish in the same recompute, their waiters wake in the
// order the transfers started, not in map-iteration order. Each completed
// flow's links join seedLinks so the residual components re-solve.
func (f *Fabric) completeDrained() {
	w := 0
	for _, id := range f.order {
		s := &f.flows[id]
		if s.remaining >= 0.5 {
			f.order[w] = id
			w++
			continue
		}
		for i, l := range s.links {
			l.flowIDs = removeID(l.flowIDs, id)
			f.seedLinks = append(f.seedLinks, l)
			// Drop the reference so a recycled slot cannot pin dead
			// links (short-lived per-connection limiters) in memory; the
			// backing array itself is kept for reuse.
			s.links[i] = nil
		}
		s.links = s.links[:0]
		s.done.Fire()
		if s.ext != nil {
			s.ext.Release()
			s.ext = nil
		}
		s.next = f.freeFlow
		f.freeFlow = id
	}
	f.order = f.order[:w]
}

// recompute is the completion-timer callback: advance progress, complete
// drained flows, re-solve their components, reschedule.
func (f *Fabric) recompute() {
	f.seedLinks = f.seedLinks[:0]
	f.recomputeSeeded()
}

// recomputeSeeded advances progress, completes drained flows, re-solves the
// connected components reachable from seedLinks (plus those of completed
// flows), and schedules the next completion event. Components not reachable
// from any seed keep their rates — which a full solve would recompute to
// the bit-identical values, since max-min water-filling treats disjoint
// components independently.
func (f *Fabric) recomputeSeeded() {
	f.advance()
	f.completeDrained()
	if len(f.seedLinks) > 0 {
		f.solveComponent(f.seedLinks)
	}
	f.reschedule()
}

// reschedule moves the completion timer to the earliest estimated flow
// completion, and checks the no-starvation invariant. Flows crossing a
// severed (zero-capacity) link are stalled, not starved: they hold their
// remaining bytes and schedule no completion; the heal's SetCapacity
// re-solve puts them back in motion.
func (f *Fabric) reschedule() {
	var nextDone sim.Time = -1
	now := f.k.Now()
	for _, id := range f.order {
		s := &f.flows[id]
		if s.rate <= 0 {
			if stalled(s.links) {
				continue
			}
			panic(fmt.Sprintf("netsim: flow starved (links %v)", linkNames(s.links)))
		}
		finish := now + time.Duration(s.remaining/float64(s.rate)*float64(time.Second))
		if finish <= now {
			finish = now + 1 // at least one tick of progress
		}
		if nextDone < 0 || finish < nextDone {
			nextDone = finish
		}
	}
	if nextDone >= 0 {
		f.completion.ResetAt(nextDone)
	} else {
		f.completion.Stop()
	}
}

// solveComponent re-solves the connected components of links reachable from
// seeds by progressive water-filling: repeatedly find the most constrained
// link, freeze its flows at the fair share, remove that capacity, and
// continue until every component flow has a rate. Freezing iterates a
// bottleneck's flows in attach order and ties between equally constrained
// links break by discovery order; both orders are deterministic, and
// neither changes the allocation — the max-min fair point is unique, and
// every flow frozen in one round subtracts the same share, so the float
// arithmetic is order-independent.
func (f *Fabric) solveComponent(seeds []*Link) {
	f.epoch++
	epoch := f.epoch

	// Flood the component(s): links reachable from the seeds through
	// shared flows. compLinks doubles as the BFS queue.
	f.compLinks = f.compLinks[:0]
	f.compFlows = f.compFlows[:0]
	for _, l := range seeds {
		if l.mark != epoch {
			l.mark = epoch
			f.compLinks = append(f.compLinks, l)
		}
	}
	for i := 0; i < len(f.compLinks); i++ {
		for _, id := range f.compLinks[i].flowIDs {
			s := &f.flows[id]
			if s.seen == epoch {
				continue
			}
			s.seen = epoch
			f.compFlows = append(f.compFlows, id)
			for _, l := range s.links {
				if l.mark != epoch {
					l.mark = epoch
					f.compLinks = append(f.compLinks, l)
				}
			}
		}
	}

	for _, l := range f.compLinks {
		l.free = float64(l.capacity)
		l.unfrozen = int32(len(l.flowIDs))
	}

	total := len(f.compFlows)
	frozenCount := 0
	for frozenCount < total {
		// Find the bottleneck link: smallest fair share among links that
		// still carry unfrozen flows.
		var bottleneck *Link
		share := math.MaxFloat64
		for _, l := range f.compLinks {
			if l.unfrozen <= 0 {
				continue
			}
			if s := l.free / float64(l.unfrozen); s < share {
				share = s
				bottleneck = l
			}
		}
		if bottleneck == nil {
			// Remaining flows cross only links with no constraint left;
			// cannot happen while unfrozen flows exist on real links.
			break
		}
		for _, id := range bottleneck.flowIDs {
			s := &f.flows[id]
			if s.frozen == epoch {
				continue
			}
			s.frozen = epoch
			frozenCount++
			s.rate = Bps(share)
			// Capacity is subtracted once per slice entry, membership
			// counted once per distinct link — preserving the historical
			// semantics for flows listing a link twice.
			for _, l := range s.links {
				l.free -= share
				if l.free < 0 {
					l.free = 0
				}
				l.unfrozen--
			}
		}
	}
	for _, id := range f.compFlows {
		if f.flows[id].frozen != epoch {
			// The break path left this flow without a rate; surface it as
			// the starvation panic reschedule would raise.
			f.flows[id].rate = 0
		}
	}
}

// stalled reports whether any crossed link is severed (zero capacity) —
// the one legitimate way for an active flow to sit at rate zero.
func stalled(links []*Link) bool {
	for _, l := range links {
		if l.capacity <= 0 {
			return true
		}
	}
	return false
}

// dupLink reports whether links[i] already occurred before index i.
func dupLink(links []*Link, i int) bool {
	for _, v := range links[:i] {
		if v == links[i] {
			return true
		}
	}
	return false
}

func linkNames(links []*Link) []string {
	names := make([]string, len(links))
	for i, l := range links {
		names[i] = l.name
	}
	return names
}
