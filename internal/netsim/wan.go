package netsim

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// WAN tier: regions are topology subtrees joined by high-latency,
// capacity-limited inter-region trunks. Everything below rides the same
// incremental fabric solver as the intra-region links — a trunk is an
// ordinary Link threaded into every cross-region transfer, a partition is
// SetCapacity(0) on that trunk (one O(touched component) re-solve), and a
// heal restores the saved capacity. Cross-region bytes are metered through
// the egress hook so experiments can price them per GB.

// wanKey identifies a region pair, lower region first.
type wanKey struct{ lo, hi int }

func pairKey(a, b int) wanKey {
	if a > b {
		a, b = b, a
	}
	return wanKey{lo: a, hi: b}
}

// wanPair is the inter-region trunk between two regions.
type wanPair struct {
	link        *Link
	lat         simrand.Dist
	capacity    Bps // nominal capacity, restored on heal
	partitioned bool
	severs      int64 // cumulative partition count, for in-flight loss detection
	bytes       int64 // cumulative cross-region payload bytes
}

// SetBuildRegion switches the region new nodes are created in and returns
// the previous build region, so callers can place a subsystem and restore:
//
//	prev := net.SetBuildRegion(1)
//	defer net.SetBuildRegion(prev)
func (n *Network) SetBuildRegion(region int) (prev int) {
	if region < 0 {
		panic("netsim: region must be non-negative")
	}
	prev = n.buildRegion
	n.buildRegion = region
	if region > n.maxRegion {
		n.maxRegion = region
	}
	return prev
}

// BuildRegion returns the region new nodes are currently created in.
func (n *Network) BuildRegion() int { return n.buildRegion }

// Regions returns the number of regions the network spans (highest region
// referenced by a node or trunk, plus one).
func (n *Network) Regions() int { return n.maxRegion + 1 }

// ConnectRegions joins two regions with a WAN trunk of the given capacity
// and one-way latency distribution. Each region pair may be connected once.
func (n *Network) ConnectRegions(a, b int, capacity Bps, lat simrand.Dist) *Link {
	if a == b {
		panic("netsim: cannot connect a region to itself")
	}
	key := pairKey(a, b)
	if n.wan == nil {
		n.wan = make(map[wanKey]*wanPair)
	}
	if _, dup := n.wan[key]; dup {
		panic(fmt.Sprintf("netsim: regions %d and %d already connected", a, b))
	}
	link := n.fabric.NewLink(fmt.Sprintf("wan/%d-%d", key.lo, key.hi), capacity)
	n.wan[key] = &wanPair{link: link, lat: lat, capacity: capacity}
	if key.hi > n.maxRegion {
		n.maxRegion = key.hi
	}
	return link
}

// wanPairOf returns the trunk between two distinct regions, panicking when
// they were never connected — an unpriced cross-region path is a topology
// bug, not a runtime condition.
func (n *Network) wanPairOf(a, b int) *wanPair {
	pair := n.wan[pairKey(a, b)]
	if pair == nil {
		panic(fmt.Sprintf("netsim: regions %d and %d are not connected", a, b))
	}
	return pair
}

// PartitionRegions severs the trunk between two regions: its capacity drops
// to zero, in-flight cross-region transfers stall in place, and new sends
// report loss through SendMsg. Idempotent while already partitioned.
func (n *Network) PartitionRegions(a, b int) {
	pair := n.wanPairOf(a, b)
	if pair.partitioned {
		return
	}
	pair.partitioned = true
	pair.severs++
	pair.link.SetCapacity(n.fabric, 0)
}

// HealRegions restores a severed trunk to its nominal capacity; stalled
// transfers resume from their frozen byte counts. Idempotent while healthy.
func (n *Network) HealRegions(a, b int) {
	pair := n.wanPairOf(a, b)
	if !pair.partitioned {
		return
	}
	pair.partitioned = false
	pair.link.SetCapacity(n.fabric, pair.capacity)
}

// RegionsPartitioned reports whether the trunk between two regions is
// currently severed.
func (n *Network) RegionsPartitioned(a, b int) bool {
	return n.wanPairOf(a, b).partitioned
}

// Reachable reports whether a message from src can currently reach dst:
// always within a region, and across regions only over a healthy trunk.
func (n *Network) Reachable(src, dst *Node) bool {
	if src.region == dst.region {
		return true
	}
	pair := n.wan[pairKey(src.region, dst.region)]
	return pair != nil && !pair.partitioned
}

// MeterEgress installs the hook invoked with the payload size of every
// cross-region send, for per-GB egress pricing.
func (n *Network) MeterEgress(fn func(bytes int64)) { n.egress = fn }

// WANBytes returns the cumulative cross-region payload bytes shipped over
// the trunk between two regions.
func (n *Network) WANBytes(a, b int) int64 { return n.wanPairOf(a, b).bytes }

// SendMsg is Send with partition semantics for message-oriented callers:
// it reports whether the message was delivered. A send into a severed trunk
// still burns the one-way delay (the sender's timeout, and an identical RNG
// draw on healthy and partitioned paths — determinism across chaos
// schedules) but moves no bytes and returns false. A transfer that a
// partition catches mid-flight stalls until the heal, then reports false —
// the TCP stall outliving the application deadline. Same-region sends are
// exactly Send and always deliver.
func (n *Network) SendMsg(p *sim.Proc, src, dst *Node, size int64, extra ...*Link) bool {
	if src.region == dst.region {
		n.Send(p, src, dst, size, extra...)
		return true
	}
	pair := n.wanPairOf(src.region, dst.region)
	if pair.partitioned {
		p.Sleep(n.OneWayDelay(src, dst))
		return false
	}
	before := pair.severs
	n.Send(p, src, dst, size, extra...)
	return pair.severs == before
}

// WANUniform is a convenience one-way-latency distribution for trunks:
// uniform in [mean-spread, mean+spread].
func WANUniform(mean, spread time.Duration) simrand.Dist {
	return simrand.Uniform{Lo: mean - spread, Hi: mean + spread}
}
