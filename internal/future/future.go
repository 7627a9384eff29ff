// Package future prototypes §4's "stepping forward" proposals: a cloud
// programming platform that keeps FaaS's pay-per-use billing while fixing
// the two steps backward:
//
//   - Long-running, addressable virtual agents: named endpoints with
//     network performance comparable to raw messaging.
//   - Fluid code and data placement: agents can be spawned next to the
//     data they use, turning storage fetches into local reads ("ship code
//     to data").
//   - Heterogeneity-aware allocation: an agent's compute rate is not
//     artificially tied to its memory size.
//
// Experiment A3 re-runs the paper's case studies on this platform to show
// the gaps closing while the billing model stays serverless.
package future

import (
	"errors"
	"time"

	"repro/internal/msgnet"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// ErrStopped is returned for operations on a stopped agent.
var ErrStopped = errors.New("future: agent stopped")

// The prototype's parameters: microVM placement, page-cache-speed local
// reads, and m4-class cores. The dataflow planner costs placements with
// the exported ones.
const (
	// PlacementLo and PlacementHi bound an agent's spawn time, drawn
	// uniformly (Firecracker-class microVMs).
	PlacementLo = 110 * time.Millisecond
	PlacementHi = 140 * time.Millisecond
	// LocalReadBps is the read rate for data co-located with the agent
	// (2,500 MB/s).
	LocalReadBps netsim.Bps = 2500e6
	// AgentNICBps sizes each agent's network endpoint (10 Gbps).
	AgentNICBps netsim.Bps = 10e9 / 8
	// computeMBps is the per-core crunch rate granted to agents
	// (decoupled from memory, unlike Lambda).
	computeMBps = 1000.0
	// rack places agents by default (ignored when spawning near data).
	rack = 2
)

// placementDelay is agent spawn time.
var placementDelay = simrand.Uniform{Lo: PlacementLo, Hi: PlacementHi}

// Platform manages agents and data sets.
type Platform struct {
	net     *netsim.Network
	mesh    *msgnet.Mesh
	rng     *simrand.RNG
	catalog *pricing.Catalog
	meter   *pricing.Meter
}

// New creates a platform sharing the cloud's network, mesh, and meter.
func New(net *netsim.Network, mesh *msgnet.Mesh, rng *simrand.RNG,
	catalog *pricing.Catalog, meter *pricing.Meter) *Platform {
	return &Platform{net: net, mesh: mesh, rng: rng, catalog: catalog, meter: meter}
}

// DataSet is a named collection of extents living on a storage node.
type DataSet struct {
	node    *netsim.Node
	extents map[string]int64
}

// CreateDataSet registers a data set hosted in the given rack.
func (pf *Platform) CreateDataSet(name string, rack int) *DataSet {
	return &DataSet{
		node:    pf.net.NewNode("ds/"+name, rack, netsim.Gbps(40)),
		extents: make(map[string]int64),
	}
}

// AddExtent registers (instantly — staging is not part of experiments) an
// extent of the given size.
func (ds *DataSet) AddExtent(key string, size int64) { ds.extents[key] = size }

// Extent returns an extent's size.
func (ds *DataSet) Extent(key string) (int64, bool) {
	s, ok := ds.extents[key]
	return s, ok
}

// Agent is a long-running, addressable unit of computation.
type Agent struct {
	pf       *Platform
	memoryMB int
	node     *netsim.Node
	ep       *msgnet.Endpoint
	near     *DataSet
	started  sim.Time
	stopped  bool
}

// SpawnAgent places a new agent, blocking through the placement delay.
// With near != nil the agent is co-located with that data set (fluid
// code placement: the scheduler ships code to data).
func (pf *Platform) SpawnAgent(p *sim.Proc, name string, memoryMB int, near *DataSet) *Agent {
	at := rack
	if near != nil {
		at = near.node.Rack()
	}
	node := pf.net.NewNode("agent/"+name, at, AgentNICBps)
	a := &Agent{
		pf:       pf,
		memoryMB: memoryMB,
		node:     node,
		ep:       pf.mesh.Endpoint(name, node),
		near:     near,
		started:  p.Now(),
	}
	p.Sleep(placementDelay.Sample(pf.rng))
	return a
}

// Endpoint returns the agent's addressable messaging endpoint — the
// capability FaaS functions lack.
func (a *Agent) Endpoint() *msgnet.Endpoint { return a.ep }

// Node returns the agent's current network node.
func (a *Agent) Node() *netsim.Node { return a.node }

// Read reads an extent: at page-cache speed when co-located, otherwise
// streamed across the network through both NICs.
func (a *Agent) Read(p *sim.Proc, ds *DataSet, key string) error {
	if a.stopped {
		return ErrStopped
	}
	size, ok := ds.Extent(key)
	if !ok {
		return errors.New("future: no extent " + key)
	}
	if a.near == ds {
		secs := float64(size) / float64(LocalReadBps)
		p.Sleep(time.Duration(secs * float64(time.Second)))
		return nil
	}
	p.Sleep(a.pf.net.OneWayDelay(a.node, ds.node))
	a.pf.net.Fabric().Transfer(p, size, ds.node.NIC(), a.node.NIC())
	return nil
}

// Compute crunches bytes at the platform's per-core rate.
func (a *Agent) Compute(p *sim.Proc, bytes int64) error {
	if a.stopped {
		return ErrStopped
	}
	secs := float64(bytes) / (computeMBps * 1e6)
	p.Sleep(time.Duration(secs * float64(time.Second)))
	return nil
}

// Stop ends the agent, charging fine-grained pay-per-use compute (the same
// GB-second rate as FaaS — the billing model §4 wants to keep).
func (a *Agent) Stop(p *sim.Proc) pricing.USD {
	if a.stopped {
		return 0
	}
	a.stopped = true
	gb := float64(a.memoryMB) / 1024
	cost := a.pf.catalog.LambdaPerGBSecond * pricing.USD(gb*time.Duration(p.Now()-a.started).Seconds())
	a.pf.meter.ChargeCost("agent.gbsec", cost)
	a.ep.Close()
	return cost
}
