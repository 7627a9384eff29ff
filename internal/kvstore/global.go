package kvstore

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// GlobalTable is a multi-region table after DynamoDB global tables: one
// full replica Store per region, each accepting local reads and writes,
// with asynchronous batched replication between regions. A replicator
// agent per region ships its queued writes to every peer on a fixed
// cadence; batches crossing a WAN trunk pay bandwidth, latency, and
// metered egress, and conflicting writes resolve last-writer-wins on the
// originating write stamp. A partition simply holds a queue in place —
// writes are never dropped and never double-applied: the queue dedupes by
// key (latest wins) while the trunk is down, and delivery bypasses the
// write hook so nothing ping-pongs back.
type GlobalTable struct {
	name    string
	net     *netsim.Network
	catalog *pricing.Catalog
	meter   *pricing.Meter
	regions []int
	stores  []*Store
	agents  []*netsim.Node
	pending []map[string]repEntry // slot [src*len(regions)+dst]
	closed  bool

	lostBatches int64
	replicated  int64
}

// repEntry is one queued cross-region write.
type repEntry struct {
	value  []byte
	origin sim.Time
}

// Calibrated multi-region replication parameters.
const (
	// shipInterval is each region's replication-shipping cadence.
	shipInterval = 200 * time.Millisecond
	// batchOverheadBytes frames one replication batch on the wire.
	batchOverheadBytes = 64
	// entryOverheadBytes covers per-item stamp/versioning framing.
	entryOverheadBytes = 24
)

// NewGlobal creates one replica Store per region (named `name-r<region>`,
// built inside that region) plus a replicator agent per region, and starts
// the shipping processes. The regions slice orders the replica slots;
// regions[0] is the primary consistent reads should pin to.
func NewGlobal(name string, net *netsim.Network, rack int, rng *simrand.RNG,
	cfg Config, regions []int,
	catalog *pricing.Catalog, meter *pricing.Meter) *GlobalTable {
	if len(regions) < 2 {
		panic("kvstore: a global table needs at least two regions")
	}
	gt := &GlobalTable{
		name:    name,
		net:     net,
		catalog: catalog,
		meter:   meter,
		regions: regions,
		stores:  make([]*Store, len(regions)),
		agents:  make([]*netsim.Node, len(regions)),
		pending: make([]map[string]repEntry, len(regions)*len(regions)),
	}
	for i := range gt.pending {
		gt.pending[i] = make(map[string]repEntry)
	}
	for slot, region := range regions {
		prev := net.SetBuildRegion(region)
		st := New(fmt.Sprintf("%s-r%d", name, region), net, rack, rng.Fork(),
			cfg, catalog, meter)
		gt.agents[slot] = net.NewNode(fmt.Sprintf("%s-repl-r%d", name, region),
			rack, netsim.Gbps(10))
		net.SetBuildRegion(prev)
		st.origin = region
		src := slot
		st.onWrite = func(key string, value []byte, origin sim.Time) {
			gt.enqueue(src, key, value, origin)
		}
		gt.stores[slot] = st
	}
	for slot := range regions {
		src := slot
		// Stagger the shippers across the interval so regions do not ship
		// in lockstep (deterministically — no RNG draw).
		stagger := time.Duration(int64(shipInterval) * int64(src+1) / int64(len(regions)+1))
		net.Kernel().Spawn(fmt.Sprintf("%s-replicator-r%d", name, regions[slot]), func(p *sim.Proc) {
			p.Sleep(stagger)
			for !gt.closed {
				p.Sleep(shipInterval)
				if gt.closed {
					return
				}
				gt.shipFrom(p, src)
			}
		})
	}
	return gt
}

// enqueue queues a locally accepted write for every peer region. The queue
// dedupes by key: a second write to a key before the next ship replaces
// the first, so a long partition costs one replicated write per key, not
// one per write — never a double-bill.
func (gt *GlobalTable) enqueue(src int, key string, value []byte, origin sim.Time) {
	for dst := range gt.stores {
		if dst == src {
			continue
		}
		gt.pending[src*len(gt.regions)+dst][key] = repEntry{value: value, origin: origin}
	}
}

// shipFrom ships src's queued writes to every reachable peer region, one
// batch per destination. Unreachable destinations keep their queues intact
// for the next cycle; a batch severed mid-flight re-queues every entry a
// newer local write hasn't already replaced.
func (gt *GlobalTable) shipFrom(p *sim.Proc, src int) {
	for dst := range gt.stores {
		if dst == src {
			continue
		}
		slot := src*len(gt.regions) + dst
		m := gt.pending[slot]
		if len(m) == 0 {
			continue
		}
		if !gt.net.Reachable(gt.agents[src], gt.agents[dst]) {
			continue // partitioned: hold the queue, retry next tick
		}
		keys := make([]string, 0, len(m))
		bytes := int64(batchOverheadBytes)
		for k, e := range m {
			keys = append(keys, k)
			bytes += int64(len(k)+len(e.value)) + entryOverheadBytes
		}
		sort.Strings(keys)
		// Take the batch before the transfer: writes landing while it is in
		// flight queue for the next cycle instead of mutating this one.
		batch := m
		gt.pending[slot] = make(map[string]repEntry)
		if !gt.net.SendMsg(p, gt.agents[src], gt.agents[dst], bytes) {
			// Severed mid-flight: nothing was applied. Re-queue anything a
			// newer local write hasn't already replaced.
			gt.lostBatches++
			cur := gt.pending[slot]
			for _, k := range keys {
				if _, newer := cur[k]; !newer {
					cur[k] = batch[k]
				}
			}
			continue
		}
		for _, k := range keys {
			e := batch[k]
			gt.stores[dst].applyReplicated(p.Now(), k, e.value, e.origin, gt.regions[src])
			gt.meter.Charge("dynamodb.repl",
				pricing.DynamoWriteUnits(int64(len(k)+len(e.value))),
				gt.catalog.DynamoWritePerUnit)
		}
		gt.replicated += int64(len(keys))
	}
}

// Close stops the replication processes after their current tick (so test
// kernels can drain).
func (gt *GlobalTable) Close() { gt.closed = true }

// Primary returns slot 0's replica — the home region consistent reads
// should pin to for a single serialization point.
func (gt *GlobalTable) Primary() *Store { return gt.stores[0] }

// StoreIn returns the replica living in the given region, or nil.
func (gt *GlobalTable) StoreIn(region int) *Store {
	for slot, r := range gt.regions {
		if r == region {
			return gt.stores[slot]
		}
	}
	return nil
}

// PendingWrites reports how many deduplicated writes are queued for
// cross-region shipping (all source/destination pairs).
func (gt *GlobalTable) PendingWrites() int {
	n := 0
	for _, m := range gt.pending {
		n += len(m)
	}
	return n
}

// Replicated reports how many writes have been applied cross-region.
func (gt *GlobalTable) Replicated() int64 { return gt.replicated }

// LostBatches reports how many replication batches a partition severed
// mid-flight (their writes re-queued; nothing was applied or dropped).
func (gt *GlobalTable) LostBatches() int64 { return gt.lostBatches }
