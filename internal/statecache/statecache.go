// Package statecache implements the paper's §4 fix for its "two steps
// back" data-shipping critique: fluid, function-colocated state. Every
// stateful FaaS pattern in §3 round-trips through slow shared storage
// (Table 1: 11 ms to DynamoDB vs sub-microsecond local memory); §4 argues
// the platform should instead keep state next to the functions with
// lattice semantics so that replication never needs coordination.
//
// A Cluster manages one cache replica per hosting VM. Reads and writes hit
// the local replica at memory latency; writes mutate CRDT lattices (the
// internal/crdt G/PN-Counter, LWW-Register and OR-Set) and are marked
// dirty. Replicas converge through periodic gossip anti-entropy — a digest
// exchange first, so steady-state bandwidth is proportional to the key
// count rather than the state size (the invertible-Bloom-filter
// reconciliation idea from Eppstein & Goodrich, simplified to per-key
// hashes), then a delta merge for only the keys that differ; a
// Config.Reconcile option replaces the O(keys) digest with a true
// constant-size IBF summary so a round costs O(symmetric difference)
// bytes (see recon.go). A
// write-behind flush persists dirty entries into the sharded kvstore as
// read-merge-write upserts. All gossip and flush traffic is metered on the
// netsim fabric through the replicas' VM NICs, and resident cache memory
// bills per GB-second (pricing.Catalog.CacheGBSecond).
package statecache

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/crdt"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/recon"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/stats"
)

// opLatency is the local read/write service time: a hash-map access plus
// lattice bookkeeping in the function's own address space.
var opLatency = simrand.Uniform{Lo: 300 * time.Nanosecond, Hi: 500 * time.Nanosecond}

const (
	// digestBytesPerKey sizes the per-entry digest record (key hash,
	// state hash, write stamp) exchanged before any state moves.
	digestBytesPerKey = 24

	// messageOverheadBytes is the fixed framing cost per gossip message.
	messageOverheadBytes int64 = 64

	// flushRetries bounds the read-merge-write loop a flush runs when
	// ConditionalPut keeps losing to concurrent flushers.
	flushRetries = 4
)

// Config holds cache parameters.
type Config struct {
	// GossipInterval is how often each replica runs one anti-entropy
	// round with one random peer.
	GossipInterval time.Duration

	// FlushInterval is how often each replica write-behind-flushes its
	// dirty entries to the backing kvstore.
	FlushInterval time.Duration

	// Reconcile switches gossip from the per-key digest exchange to
	// invertible-Bloom-filter set reconciliation: a round ships a fixed
	// ReconCells-cell summary and peels out exactly the disagreeing keys,
	// so steady-state bytes are O(symmetric difference) instead of
	// O(keys). Decode failures escalate to 2× and 4× summaries and then
	// fall back to the digest exchange, so convergence never depends on
	// decode success. Default off: the digest protocol is the reference
	// oracle and keeps historical output byte-identical.
	Reconcile bool

	// ReconCells sizes the IBF summary (CellWireBytes bytes each; the
	// count rounds up to a multiple of the hash count). Decode succeeds
	// w.h.p. while the number of differing (key, state-hash) elements
	// stays below roughly half the cell count.
	ReconCells int
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		GossipInterval: 200 * time.Millisecond,
		FlushInterval:  time.Second,
		ReconCells:     256,
	}
}

// errUnreachable marks a flush attempt made while the backing store sits
// across a severed WAN trunk; the caller re-marks the key dirty and
// retries after the heal.
var errUnreachable = errors.New("statecache: backing store unreachable")

// Kind identifies which lattice an entry holds.
type Kind uint8

// The four lattice kinds a cache entry can hold.
const (
	KindGCounter Kind = iota + 1
	KindPNCounter
	KindRegister
	KindSet
)

func (k Kind) String() string {
	switch k {
	case KindGCounter:
		return "g-counter"
	case KindPNCounter:
		return "pn-counter"
	case KindRegister:
		return "lww-register"
	case KindSet:
		return "or-set"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Cluster owns the cache replicas colocated with a fleet of VMs, the
// gossip schedule that converges them, and the write-behind path into the
// backing store.
type Cluster struct {
	name    string
	net     *netsim.Network
	store   *kvstore.Store
	rng     *simrand.RNG
	cfg     Config
	catalog *pricing.Catalog
	meter   *pricing.Meter

	replicas []*Cache                // attach order; peer picks index this slice
	byNode   map[*netsim.Node]*Cache // at most one replica per VM node

	staleness *stats.Recorder

	// GB-second billing accrual, mirroring faas provisioned concurrency:
	// bytes is the resident lattice state across replicas, accrued into
	// the meter on every allocation change and on Accrue.
	bytes int64
	since sim.Time

	nextID        int
	startedRounds int64
	gossipRounds  int64
	abortedRounds int64
	flushWrites   int64

	// Gossip traffic breakdown (see GossipBytes) and the time of the last
	// state-changing merge (see LastMergeChange).
	bytesSummary int64
	bytesPayload int64
	bytesPush    int64
	lastMerge    sim.Time

	// Preload memoizes the shared register template so bulk-loading a
	// million identical entries marshals exactly once.
	preReg   *crdt.LWWRegister
	preBytes int64
	preHash  uint64

	// encBuf is the scratch every entry refresh encodes into. It belongs
	// to the cluster, not the package: a cluster runs on one kernel, but
	// sweep points run clusters on concurrent kernels.
	encBuf []byte
}

// New creates a cluster backed by the given store. The cluster is inert
// until replicas are attached; creating one schedules nothing. It panics
// on a non-positive GossipInterval, FlushInterval or ReconCells: a zero
// interval would spin a replica's loop at one instant forever.
func New(name string, net *netsim.Network, store *kvstore.Store, rng *simrand.RNG,
	cfg Config, catalog *pricing.Catalog, meter *pricing.Meter) *Cluster {
	if cfg.GossipInterval <= 0 || cfg.FlushInterval <= 0 || cfg.ReconCells <= 0 {
		panic(fmt.Sprintf("statecache: non-positive GossipInterval %v, FlushInterval %v or ReconCells %d",
			cfg.GossipInterval, cfg.FlushInterval, cfg.ReconCells))
	}
	return &Cluster{
		name:      name,
		net:       net,
		store:     store,
		rng:       rng,
		cfg:       cfg,
		catalog:   catalog,
		meter:     meter,
		byNode:    make(map[*netsim.Node]*Cache),
		staleness: stats.NewRecorder(name + "/staleness"),
	}
}

// Attach creates a cache replica colocated with the given VM node and
// starts its gossip and flush processes. Attaching a node that already has
// a replica returns the existing one.
func (cl *Cluster) Attach(node *netsim.Node) *Cache {
	if c := cl.byNode[node]; c != nil {
		return c
	}
	cl.nextID++
	c := &Cache{
		cl:      cl,
		node:    node,
		replica: fmt.Sprintf("%s#%d", node.ID(), cl.nextID),
		rng:     cl.rng.Fork(),
		entries: make(map[string]*entry),
		dirty:   make(map[string]bool),
	}
	if cl.cfg.Reconcile {
		c.rc = &reconState{
			live:  recon.New(cl.cfg.ReconCells),
			elems: make(map[uint64]string),
		}
	}
	cl.replicas = append(cl.replicas, c)
	cl.byNode[node] = c
	k := cl.net.Kernel()
	// Stagger the first tick per replica so a fleet attached in one
	// instant does not gossip in lockstep forever.
	k.Spawn("statecache-gossip/"+c.replica, func(p *sim.Proc) {
		p.Sleep(time.Duration(c.rng.Float64() * float64(cl.cfg.GossipInterval)))
		for !c.detached {
			p.Sleep(cl.cfg.GossipInterval)
			if c.detached {
				return
			}
			c.gossipOnce(p)
		}
	})
	k.Spawn("statecache-flush/"+c.replica, func(p *sim.Proc) {
		p.Sleep(time.Duration(c.rng.Float64() * float64(cl.cfg.FlushInterval)))
		for !c.detached {
			p.Sleep(cl.cfg.FlushInterval)
			if c.detached {
				return
			}
			c.flushDirty(p)
		}
	})
	return c
}

// Detach removes the node's replica from the gossip ring, stops billing its
// memory, and — if it holds unflushed deltas — spawns a drain process that
// write-behind-flushes every dirty entry before the state is dropped. The
// FaaS platform calls this when it reclaims an emptied VM, so container
// churn never silently loses absorbed writes.
func (cl *Cluster) Detach(node *netsim.Node) {
	c := cl.byNode[node]
	if c == nil {
		return
	}
	// Settle deferred refreshes while the replica is still billed, so the
	// bytes subtracted below are the bytes that were being charged.
	c.freshAll()
	c.detached = true
	delete(cl.byNode, node)
	for i, cand := range cl.replicas {
		if cand == c {
			cl.replicas = append(cl.replicas[:i], cl.replicas[i+1:]...)
			break
		}
	}
	cl.addBytes(-c.bytes)
	if len(c.dirty) > 0 {
		cl.net.Kernel().Spawn("statecache-drain/"+c.replica, func(p *sim.Proc) {
			for {
				c.flushDirty(p)
				if len(c.dirty) == 0 {
					return
				}
				// The backing store is on the far side of a partition (or a
				// mutation re-dirtied a key mid-drain): hold the deltas and
				// retry after a flush interval rather than dropping them.
				p.Sleep(cl.cfg.FlushInterval)
			}
		})
	}
}

// Replica returns the cache attached to node, or nil.
func (cl *Cluster) Replica(node *netsim.Node) *Cache { return cl.byNode[node] }

// Replicas reports how many replicas are attached.
func (cl *Cluster) Replicas() int { return len(cl.replicas) }

// Staleness returns the recorder of anti-entropy propagation delays: one
// sample per gossip merge that changed a replica's state, measuring the
// time from the originating write to its visibility on the merging
// replica. Its exact percentiles are the cache's staleness window.
func (cl *Cluster) Staleness() *stats.Recorder { return cl.staleness }

// GossipRounds reports how many anti-entropy rounds ran to completion
// (every leg delivered and merged). Rounds cut short by a peer detaching
// mid-flight are counted by AbortedRounds instead.
func (cl *Cluster) GossipRounds() int64 { return cl.gossipRounds }

// AbortedRounds reports how many gossip rounds were cut short at any leg —
// a participant detaching while a message was in flight, or a WAN
// partition severing the leg's trunk.
func (cl *Cluster) AbortedRounds() int64 { return cl.abortedRounds }

// StartedRounds reports how many gossip rounds found a live, reachable
// peer and began exchanging messages. Every started round is accounted
// for: at quiescence StartedRounds() == GossipRounds() + AbortedRounds().
func (cl *Cluster) StartedRounds() int64 { return cl.startedRounds }

// GossipTraffic is a cluster's cumulative gossip byte breakdown. Summary
// covers the reconciliation control legs — per-key digests under the
// default protocol, IBF summaries plus escalation nacks/retries under
// Config.Reconcile. Payload covers pull responses (peer state for the
// diff, plus unresolved element digests on the IBF path) and Push the
// final push legs.
type GossipTraffic struct {
	Summary int64
	Payload int64
	Push    int64
}

// Total returns the all-legs byte sum.
func (g GossipTraffic) Total() int64 { return g.Summary + g.Payload + g.Push }

// GossipBytes reports the cumulative gossip traffic by message leg,
// including the legs of rounds that were later aborted.
func (cl *Cluster) GossipBytes() GossipTraffic {
	return GossipTraffic{Summary: cl.bytesSummary, Payload: cl.bytesPayload, Push: cl.bytesPush}
}

// LastMergeChange reports the virtual time of the last gossip merge that
// changed any replica's state. Once writes stop, the cluster is converged
// when this stops advancing.
func (cl *Cluster) LastMergeChange() sim.Time { return cl.lastMerge }

// FlushWrites reports how many kvstore writes the write-behind path made.
func (cl *Cluster) FlushWrites() int64 { return cl.flushWrites }

// Accrue settles cache-memory charges up to now: every replica's deferred
// footprint refreshes are settled (with their catch-up charges), then the
// resident total is accrued. Experiments call it once before reading the
// meter so charges cover the full run.
func (cl *Cluster) Accrue(now sim.Time) {
	for _, c := range cl.replicas {
		c.freshAll()
	}
	cl.accrue(now)
}

// accrue charges the currently recorded resident bytes over the span since
// the last settlement (allocation changes call it before moving bytes).
func (cl *Cluster) accrue(now sim.Time) {
	if cl.bytes > 0 && now > cl.since {
		gb := float64(cl.bytes) / 1e9
		secs := time.Duration(now - cl.since).Seconds()
		cl.meter.ChargeCost("statecache.gbsec", pricing.USD(gb*secs)*cl.catalog.CacheGBSecond)
	}
	cl.since = now
}

func (cl *Cluster) addBytes(delta int64) {
	if delta == 0 {
		return
	}
	cl.accrue(cl.net.Kernel().Now())
	cl.bytes += delta
}

// Cache is one replica, colocated with (and doing all of its network I/O
// through) a single hosting VM's node.
type Cache struct {
	cl      *Cluster
	node    *netsim.Node
	replica string
	rng     *simrand.RNG
	entries map[string]*entry
	// keys mirrors entries' key set in sorted order, maintained
	// incrementally on insert (entries are never individually removed), so
	// per-gossip-round key iteration neither allocates nor re-sorts, and
	// ents holds each key's entry at the same index, so the walks over
	// keys index instead of hashing. keyBytes is the running sum of key
	// lengths, which makes digest sizing O(1).
	keys     []string
	ents     []*entry
	keyBytes int64
	dirty    map[string]bool
	bytes    int64 // this replica's resident state
	detached bool

	// Reusable scratch. diffScratch backs diffKeys' result and candScratch
	// pickPeer's candidate list; both are only used by this replica's own
	// gossip round, which is a single sequential process. flush is the
	// write-behind cycle's own (see flushScratch) — separate because the
	// flush process interleaves with gossip rounds at park points.
	diffScratch []string
	candScratch []*Cache
	flush       *flushScratch

	// rc is the IBF reconciliation state (nil unless Config.Reconcile).
	rc *reconState
}

// insert adds a new entry: to the map, and to the sorted key slice and
// its aligned entry slice. Keys arriving in ascending order (bulk
// preloads, merge walks over a peer's sorted diff into an empty replica)
// append in O(1) instead of paying the binary search and shift.
//
// Both slices double when full. append grows by about 1.25x past 256
// entries, which made a bulk preload leave several times its final size
// in garbage; below that, doubling is what append does.
func (c *Cache) insert(key string, e *entry) {
	c.entries[key] = e
	c.keyBytes += int64(len(key))
	if n := len(c.keys); n == cap(c.keys) {
		c.keys = append(make([]string, 0, max(2*n, 1)), c.keys...)
		c.ents = append(make([]*entry, 0, max(2*n, 1)), c.ents...)
	}
	if n := len(c.keys); n == 0 || c.keys[n-1] < key {
		c.keys = append(c.keys, key)
		c.ents = append(c.ents, e)
	} else {
		i := sort.SearchStrings(c.keys, key)
		c.keys = slices.Insert(c.keys, i, key)
		c.ents = slices.Insert(c.ents, i, e)
	}
	c.reconInsert(key, e)
}

// Detach removes this replica from its own cluster (see Cluster.Detach).
func (c *Cache) Detach() { c.cl.Detach(c.node) }

// touch charges one local-memory operation.
func (c *Cache) touch(p *sim.Proc) {
	if c.detached {
		panic("statecache: operation on a detached replica")
	}
	p.Sleep(opLatency.Sample(c.rng))
}

// at returns the entry for key, creating it with the given kind when
// create is set. A kind mismatch against an existing entry panics: one key
// is one lattice, and mixing them cannot merge.
func (c *Cache) at(key string, kind Kind, create bool) *entry {
	e, ok := c.entries[key]
	if ok {
		if e.kind != kind {
			panic(fmt.Sprintf("statecache: key %q holds a %v, not a %v", key, e.kind, kind))
		}
		return e
	}
	if !create {
		return nil
	}
	e = newEntry(kind)
	c.insert(key, e)
	return e
}

// wrote records a local mutation: the entry is marked dirty for the
// write-behind flush and stale for the deferred footprint/hash refresh
// (see entry.stale — no marshal on the memory-speed op path).
func (c *Cache) wrote(p *sim.Proc, key string, e *entry) {
	e.lastWrite = p.Now()
	if !e.stale {
		e.stale = true
		e.staleSince = p.Now()
		if c.rc != nil {
			c.rc.stale = append(c.rc.stale, key)
		}
	}
	c.dirty[key] = true
}

// fresh settles an entry's deferred refresh. Footprint growth is billed
// from staleSince — when it actually appeared — via a catch-up charge, so
// lazy refreshing changes when the meter is touched but not (beyond the
// sub-cent approximation of netting a window's mutations to its start)
// what an interval of resident memory costs. Shrinkage is applied forward
// only; no retroactive refunds.
func (c *Cache) fresh(key string, e *entry) {
	if !e.stale {
		return
	}
	old := e.hash
	delta := e.refresh(&c.cl.encBuf)
	c.reconRehash(key, old, e.hash)
	c.reweigh(delta)
	if c.detached || delta <= 0 {
		return
	}
	cl := c.cl
	if span := cl.net.Kernel().Now() - e.staleSince; span > 0 {
		gb := float64(delta) / 1e9
		cl.meter.ChargeCost("statecache.gbsec",
			pricing.USD(gb*span.Seconds())*cl.catalog.CacheGBSecond)
	}
}

func (c *Cache) reweigh(delta int64) {
	if delta == 0 {
		return
	}
	c.bytes += delta
	if !c.detached {
		c.cl.addBytes(delta)
	}
}

// IncGCounter adds n (n >= 0) to the named grow-only counter.
func (c *Cache) IncGCounter(p *sim.Proc, key string, n int64) {
	c.touch(p)
	e := c.at(key, KindGCounter, true)
	e.g.Inc(c.replica, n)
	c.wrote(p, key, e)
}

// GCounterValue reads the named grow-only counter.
func (c *Cache) GCounterValue(p *sim.Proc, key string) int64 {
	c.touch(p)
	if e := c.at(key, KindGCounter, false); e != nil {
		return e.g.Value()
	}
	return 0
}

// AddCounter applies a signed delta to the named PN-counter.
func (c *Cache) AddCounter(p *sim.Proc, key string, delta int64) {
	c.touch(p)
	e := c.at(key, KindPNCounter, true)
	e.pn.Add(c.replica, delta)
	c.wrote(p, key, e)
}

// Counter reads the named PN-counter.
func (c *Cache) Counter(p *sim.Proc, key string) int64 {
	c.touch(p)
	if e := c.at(key, KindPNCounter, false); e != nil {
		return e.pn.Value()
	}
	return 0
}

// SetRegister writes the named LWW register, stamped with the current
// virtual time (replica id breaks ties deterministically).
func (c *Cache) SetRegister(p *sim.Proc, key, val string) {
	c.touch(p)
	e := c.at(key, KindRegister, true)
	e.unshare()
	e.reg.Set(c.replica, int64(p.Now()), val)
	c.wrote(p, key, e)
}

// Register reads the named LWW register ("" when absent).
func (c *Cache) Register(p *sim.Proc, key string) string {
	c.touch(p)
	if e := c.at(key, KindRegister, false); e != nil {
		return e.reg.Get()
	}
	return ""
}

// AddSet inserts elem into the named OR-set.
func (c *Cache) AddSet(p *sim.Proc, key, elem string) {
	c.touch(p)
	e := c.at(key, KindSet, true)
	e.set.Add(c.replica, elem)
	c.wrote(p, key, e)
}

// RemoveSet removes elem from the named OR-set (observed-remove:
// concurrent unseen adds survive).
func (c *Cache) RemoveSet(p *sim.Proc, key, elem string) {
	c.touch(p)
	e := c.at(key, KindSet, true)
	e.set.Remove(elem)
	c.wrote(p, key, e)
}

// SetContains reports membership in the named OR-set.
func (c *Cache) SetContains(p *sim.Proc, key, elem string) bool {
	c.touch(p)
	if e := c.at(key, KindSet, false); e != nil {
		return e.set.Contains(elem)
	}
	return false
}

// SetElements returns the named OR-set's live membership, sorted.
func (c *Cache) SetElements(p *sim.Proc, key string) []string {
	c.touch(p)
	if e := c.at(key, KindSet, false); e != nil {
		return e.set.Elements()
	}
	return nil
}

// PeekCounter reads the named PN-counter without simulated latency
// (test/observability hook, like kvstore.Len).
func (c *Cache) PeekCounter(key string) int64 {
	if e := c.entries[key]; e != nil && e.kind == KindPNCounter {
		return e.pn.Value()
	}
	return 0
}

// PeekGCounter reads the named G-counter without simulated latency.
func (c *Cache) PeekGCounter(key string) int64 {
	if e := c.entries[key]; e != nil && e.kind == KindGCounter {
		return e.g.Value()
	}
	return 0
}

// PeekRegister reads the named register without simulated latency.
func (c *Cache) PeekRegister(key string) string {
	if e := c.entries[key]; e != nil && e.kind == KindRegister {
		return e.reg.Get()
	}
	return ""
}

// PeekSet reads the named OR-set's membership without simulated latency.
func (c *Cache) PeekSet(key string) []string {
	if e := c.entries[key]; e != nil && e.kind == KindSet {
		return e.set.Elements()
	}
	return nil
}

// Preload installs a pre-converged LWW-register entry without simulated
// latency: the setup path for experiments that start from a warmed,
// already-replicated key space (preload the same key/value on every
// replica). The register carries the reserved "preload" actor at stamp
// zero, so any real write wins; identical values share one memoized
// template register and its marshaled footprint/hash (bulk-loading a
// million keys marshals once and allocates no per-entry lattice — the
// entry unshares on first mutation or merge). Entries are not marked
// dirty: a preload models state already durable. Keys must be new, and
// ascending preload order appends to the sorted index in O(1).
func (c *Cache) Preload(key, val string) {
	if c.detached {
		panic("statecache: Preload on a detached replica")
	}
	if _, ok := c.entries[key]; ok {
		panic(fmt.Sprintf("statecache: Preload of existing key %q", key))
	}
	cl := c.cl
	if cl.preReg == nil || cl.preReg.Val != val {
		reg := &crdt.LWWRegister{Val: val, Replica: "preload"}
		tmp := &entry{kind: KindRegister, reg: reg}
		tmp.refresh(&cl.encBuf)
		cl.preReg, cl.preBytes, cl.preHash = reg, tmp.bytes, tmp.hash
	}
	e := &entry{
		kind:      KindRegister,
		reg:       cl.preReg,
		sharedReg: true,
		bytes:     cl.preBytes,
		hash:      cl.preHash,
	}
	c.insert(key, e)
	c.reweigh(e.bytes)
}

// freshAll settles every entry's deferred refresh, in key order.
func (c *Cache) freshAll() {
	for i, k := range c.keys {
		c.fresh(k, c.ents[i])
	}
}

// flushScratch is the working memory of one write-behind cycle: the dirty
// keys it walks, the entry each stored envelope is decoded into, and the
// buffer each join is encoded into. The kvstore holds on to neither the
// decoded entry nor the buffer: the decode copies what it keeps out of the
// stored bytes Get hands out, and ConditionalPut copies the value once its
// round trip completes.
type flushScratch struct {
	keys   []string
	stored entry
	enc    []byte
}

// flushDirty write-behind-flushes every currently dirty entry, in key
// order. Each key is cleared from the dirty set before its flush starts:
// a mutation that lands mid-flush re-marks the key and is caught by the
// next cycle instead of being silently clobbered.
func (c *Cache) flushDirty(p *sim.Proc) {
	if len(c.dirty) == 0 {
		return
	}
	// Walk the sorted key index and pick the dirty ones: same key order as
	// collecting and sorting the dirty set, without the per-flush sort.
	// The scratch — key list, decode entry and encode buffer — is taken by
	// ownership for the duration of the cycle: flushKey parks, and a drain
	// process spawned by Detach can call flushDirty on this replica while
	// the periodic flusher is still parked mid-iteration. The second caller
	// must not rewrite the keys, the decoded state or the bytes of a write
	// in flight under the first (it allocates its own scratch instead). The
	// scratch is restored at the normal exits only, NOT via defer: a
	// kernel Close panic-unwinds every parked proc, and the periodic
	// flusher and a drain proc can both be parked inside flushKey — two
	// concurrently unwinding deferred restores would race on the field.
	// Losing the scratch on unwind is free; the cache is being torn down.
	fs := c.flush
	c.flush = nil
	if fs == nil {
		fs = &flushScratch{}
	}
	fs.keys = fs.keys[:0]
	for _, k := range c.keys {
		if c.dirty[k] {
			fs.keys = append(fs.keys, k)
		}
	}
	for _, key := range fs.keys {
		delete(c.dirty, key)
		if err := c.flushKey(p, key, fs); err != nil {
			if errors.Is(err, errUnreachable) || service.Overloaded(err) {
				// The store sits across a severed WAN trunk, or its shard
				// is shedding load. Re-mark the key and stop the cycle:
				// the deltas stay resident (and billed) until a later
				// cycle finds the trunk healed or the shard drained, so an
				// outage can delay a write-behind flush but never lose or
				// double-apply it — and a flusher that backed off is one
				// less client hammering an overloaded store.
				c.dirty[key] = true
				break
			}
			panic("statecache: flush: " + err.Error())
		}
	}
	c.flush = fs
}

// Value is a decoded stored entry: the read surface for consumers pulling
// flushed lattice state straight from the backing store (an experiment
// verifying durability, a cold replica warming from the store).
type Value struct{ e *entry }

// DecodeValue parses a kvstore item the write-behind flush persisted.
func DecodeValue(data []byte) (Value, error) {
	e, err := decodeEntry(data)
	if err != nil {
		return Value{}, err
	}
	return Value{e: e}, nil
}

// Counter returns the PN-counter total (0 for other kinds).
func (v Value) Counter() int64 {
	if v.e.kind == KindPNCounter {
		return v.e.pn.Value()
	}
	return 0
}

// flushKey persists one entry as a read-merge-write upsert: fetch the
// stored lattice, join it into the local state (the store is just another
// replica), and conditionally write the join back. Losing the conditional
// write means another replica flushed concurrently; the retry re-reads and
// re-joins, so no side's deltas are lost. fs is the calling cycle's
// scratch: the stored state is decoded into fs.stored and the join encoded
// into fs.enc. The merge copies what it takes from fs.stored, so the next
// decode into it leaves e untouched.
func (c *Cache) flushKey(p *sim.Proc, key string, fs *flushScratch) error {
	e := c.entries[key]
	if e == nil {
		return nil
	}
	if !c.cl.net.Reachable(c.node, c.cl.store.Node()) {
		return errUnreachable
	}
	c.fresh(key, e)
	if e.storeKey == "" {
		e.storeKey = c.cl.name + "/" + key
	}
	for attempt := 0; attempt < flushRetries; attempt++ {
		var version int64
		it, err := c.cl.store.Get(p, c.node, e.storeKey, true)
		switch {
		case err == nil:
			stored := &fs.stored
			if derr := decodeEntryInto(stored, it.Value); derr != nil {
				return fmt.Errorf("stored %q: %w", e.storeKey, derr)
			}
			// Equal digests mean the stored state is byte-identical to the
			// local join — merging it back in would be an identity, so the
			// re-marshal is skipped (the write stamp still converges).
			if stored.hash != e.hash || stored.kind != e.kind {
				before := e.hash
				c.reweigh(e.merge(stored, &c.cl.encBuf))
				c.reconRehash(key, before, e.hash)
			} else if stored.lastWrite > e.lastWrite {
				e.lastWrite = stored.lastWrite
			}
			version = it.Version
		case errors.Is(err, kvstore.ErrNotFound):
			version = 0
		default:
			return err
		}
		fs.enc = e.encode(fs.enc[:0])
		_, err = c.cl.store.ConditionalPut(p, c.node, e.storeKey, fs.enc, version)
		if err == nil {
			c.cl.flushWrites++
			return nil
		}
		if !errors.Is(err, kvstore.ErrConditionFailed) {
			return err
		}
	}
	return fmt.Errorf("lost %d conditional writes on %q", flushRetries, e.storeKey)
}
