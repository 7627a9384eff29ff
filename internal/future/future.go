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

// Config holds platform parameters.
type Config struct {
	// PlacementDelay is agent spawn time (Firecracker-class microVMs).
	PlacementDelay simrand.Dist
	// LocalReadBps is the read rate for data co-located with the agent.
	LocalReadBps netsim.Bps
	// AgentNICBps sizes each agent's network endpoint.
	AgentNICBps netsim.Bps
	// ComputeMBps is the per-core crunch rate granted to agents
	// (decoupled from memory, unlike Lambda).
	ComputeMBps float64
	// Rack places agents by default (ignored when spawning near data).
	Rack int
}

// DefaultConfig returns the prototype's parameters: microVM placement,
// page-cache-speed local reads, and m4-class cores.
func DefaultConfig() Config {
	return Config{
		PlacementDelay: simrand.Uniform{Lo: 110 * time.Millisecond, Hi: 140 * time.Millisecond},
		LocalReadBps:   netsim.MBps(2500),
		AgentNICBps:    netsim.Gbps(10),
		ComputeMBps:    1000,
		Rack:           2,
	}
}

// Platform manages agents and data sets.
type Platform struct {
	net     *netsim.Network
	mesh    *msgnet.Mesh
	rng     *simrand.RNG
	cfg     Config
	catalog *pricing.Catalog
	meter   *pricing.Meter
}

// New creates a platform sharing the cloud's network, mesh, and meter.
func New(net *netsim.Network, mesh *msgnet.Mesh, rng *simrand.RNG, cfg Config,
	catalog *pricing.Catalog, meter *pricing.Meter) *Platform {
	return &Platform{net: net, mesh: mesh, rng: rng, cfg: cfg, catalog: catalog, meter: meter}
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
	name     string
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
	rack := pf.cfg.Rack
	if near != nil {
		rack = near.node.Rack()
	}
	node := pf.net.NewNode("agent/"+name, rack, pf.cfg.AgentNICBps)
	a := &Agent{
		pf:       pf,
		name:     name,
		memoryMB: memoryMB,
		node:     node,
		ep:       pf.mesh.Endpoint(name, node),
		near:     near,
		started:  p.Now(),
	}
	p.Sleep(pf.cfg.PlacementDelay.Sample(pf.rng))
	return a
}

// Name returns the agent's stable, location-independent name.
func (a *Agent) Name() string { return a.name }

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
		secs := float64(size) / float64(a.pf.cfg.LocalReadBps)
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
	secs := float64(bytes) / (a.pf.cfg.ComputeMBps * 1e6)
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

// Stopped reports whether the agent has been stopped.
func (a *Agent) Stopped() bool { return a.stopped }
