package netsim

import (
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// Node is a network endpoint: a VM, a Lambda host, or a storage front end.
// Each node owns a NIC link through which all of its bulk transfers pass.
type Node struct {
	id     string
	rack   int
	region int
	nic    *Link
}

// ID returns the node identifier.
func (n *Node) ID() string { return n.id }

// Rack returns the rack the node lives in.
func (n *Node) Rack() int { return n.rack }

// Region returns the region the node lives in (0 unless the network was
// switched to another build region before the node was created).
func (n *Node) Region() int { return n.region }

// NIC returns the node's network interface link.
func (n *Node) NIC() *Link { return n.nic }

// LatencyProfile holds the one-way propagation-delay distributions for each
// topology distance class. Defaults (see DefaultLatency) are calibrated to
// the paper: a ZeroMQ 1KB round trip between two EC2 instances measured
// 290 µs (same rack), and the paper cites Pingmesh's ~1.26 ms average
// inter-rack round trip.
type LatencyProfile struct {
	SameHost  simrand.Dist
	SameRack  simrand.Dist
	CrossRack simrand.Dist
}

// DefaultLatency returns the calibrated latency profile.
func DefaultLatency() LatencyProfile {
	return LatencyProfile{
		// Loopback within a host.
		SameHost: simrand.Uniform{Lo: 8 * time.Microsecond, Hi: 12 * time.Microsecond},
		// One way same-rack: calibrated so that propagation plus NIC
		// serialization plus per-message software overhead makes a 1KB
		// acked round trip land at the measured 290µs (see msgnet).
		SameRack: simrand.Uniform{Lo: 127 * time.Microsecond, Hi: 157 * time.Microsecond},
		// One way cross-rack: half of Pingmesh's 1.26ms average RTT.
		CrossRack: simrand.Uniform{Lo: 550 * time.Microsecond, Hi: 710 * time.Microsecond},
	}
}

// Network combines a Fabric with node placement and latency classes. A
// network starts as one region (region 0); see wan.go for the WAN tier —
// ConnectRegions, partitions, and egress metering.
type Network struct {
	k       *sim.Kernel
	fabric  *Fabric
	rng     *simrand.RNG
	latency LatencyProfile
	nodes   map[string]*Node

	// WAN tier state (wan.go): the region new nodes are placed in, the
	// inter-region links keyed by ordered region pair, the highest region
	// seen, and the per-message egress metering hook.
	buildRegion int
	wan         map[wanKey]*wanPair
	maxRegion   int
	egress      func(bytes int64)
}

// NewNetwork creates a network on kernel k with deterministic jitter drawn
// from rng and the given latency profile.
func NewNetwork(k *sim.Kernel, rng *simrand.RNG, lat LatencyProfile) *Network {
	return &Network{
		k:       k,
		fabric:  NewFabric(k),
		rng:     rng,
		latency: lat,
		nodes:   make(map[string]*Node),
	}
}

// Kernel returns the kernel the network is bound to.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// Fabric returns the underlying link fabric.
func (n *Network) Fabric() *Fabric { return n.fabric }

// NewNode registers an endpoint in the given rack with a NIC of the given
// capacity. Node IDs must be unique.
func (n *Network) NewNode(id string, rack int, nicCapacity Bps) *Node {
	if _, dup := n.nodes[id]; dup {
		panic("netsim: duplicate node id " + id)
	}
	node := &Node{id: id, rack: rack, region: n.buildRegion, nic: n.fabric.NewLink(id+"/nic", nicCapacity)}
	n.nodes[id] = node
	return node
}

// Node looks up a registered node by ID, returning nil if absent.
func (n *Network) Node(id string) *Node { return n.nodes[id] }

// OneWayDelay samples the propagation delay for a message from src to dst.
// Cross-region delay is the pair's WAN distribution; the regions must have
// been joined with ConnectRegions.
func (n *Network) OneWayDelay(src, dst *Node) time.Duration {
	switch {
	case src == dst:
		return n.latency.SameHost.Sample(n.rng)
	case src.region != dst.region:
		return n.wanPairOf(src.region, dst.region).lat.Sample(n.rng)
	case src.rack == dst.rack:
		return n.latency.SameRack.Sample(n.rng)
	default:
		return n.latency.CrossRack.Sample(n.rng)
	}
}

// Send models sending size bytes from src to dst: propagation delay plus a
// bandwidth-shared transfer through both NICs, blocking the caller until the
// last byte arrives. Extra links (e.g. a per-connection throughput cap) may
// be threaded into the transfer.
func (n *Network) Send(p *sim.Proc, src, dst *Node, size int64, extra ...*Link) {
	p.Sleep(n.OneWayDelay(src, dst))
	if size <= 0 {
		return
	}
	var links []*Link
	if src.region != dst.region {
		// Cross-region bytes also squeeze through the shared inter-region
		// trunk and are metered as egress.
		pair := n.wanPairOf(src.region, dst.region)
		pair.bytes += size
		if n.egress != nil {
			n.egress(size)
		}
		links = append([]*Link{src.nic, pair.link, dst.nic}, extra...)
	} else {
		links = append([]*Link{src.nic, dst.nic}, extra...)
	}
	n.fabric.Transfer(p, size, links...)
}
