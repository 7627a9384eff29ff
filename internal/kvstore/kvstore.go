// Package kvstore simulates a DynamoDB-style key-value service: single-item
// reads and writes with millisecond latency, conditional writes, prefix
// scans, a 400KB item-size limit, strongly or eventually consistent reads,
// and on-demand request-unit metering.
//
// It is the "blackboard" medium the paper's leader-election case study
// forces all communication through, and one of the two storage columns in
// Table 1 (11 ms for a 1KB write+read pair).
//
// The table can be horizontally sharded (Config.ShardCount): keys hash to
// one of N partitions, each with its own front-end node, NIC, record map
// and service-time stream, mirroring how DynamoDB actually spreads a table
// over partitions with per-partition throughput ceilings. ShardCount 1 (the
// calibrated default) reproduces the original single-node behavior bit for
// bit; see shard.go for routing. ShardFrontend(i).Stats() reports one
// shard's traffic.
package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// MaxItemSize is the DynamoDB item-size limit.
const MaxItemSize = 400 * 1024

// ErrNotFound is returned when a key is absent. Get returns the sentinel
// itself, not a wrapper naming the key: misses are routine on read-heavy
// load, and the bare sentinel costs no allocation.
var ErrNotFound = errors.New("kvstore: key not found")

// ErrConditionFailed is returned when a conditional write's precondition
// does not hold.
var ErrConditionFailed = errors.New("kvstore: condition failed")

// ErrItemTooLarge is returned for values above MaxItemSize.
var ErrItemTooLarge = errors.New("kvstore: item exceeds 400KB limit")

// Item is a stored key-value pair. Version increases by one on every
// successful write of the key (1 on first write).
type Item struct {
	Key     string
	Value   []byte
	Version int64
}

// Size returns the item's billable size (key + value bytes).
func (it Item) Size() int64 { return int64(len(it.Key) + len(it.Value)) }

// opLatency is per-request service time. The paper measures a 1KB
// write+read pair at 11 ms from both Lambda and EC2, so the median is
// ~4.2 ms per operation (plus network round trip).
var opLatency simrand.Dist = simrand.LogNormal{Median: 4150 * time.Microsecond, Sigma: 0.12}

const (
	// scanPerItem adds service time per item touched by a Scan.
	scanPerItem = 3 * time.Microsecond
	// nicBps is each front end's aggregate network capacity (400 Gbps).
	nicBps netsim.Bps = 400e9 / 8
)

// Config holds the table's settings that programs and tests vary.
type Config struct {
	// ReplicationLag, when positive, makes eventually consistent reads
	// able to return the previous version of a recently written key.
	ReplicationLag time.Duration

	// ShardCount splits the table into this many hash partitions, each
	// with its own front-end node, NIC, record map and RNG fork. Values
	// below 1 mean 1. With a single shard the store is byte-identical to
	// the unsharded original under the same seed.
	ShardCount int

	// ShardConcurrency caps how many requests one shard's front end can
	// have in service simultaneously; excess requests queue FIFO at that
	// shard. 0 (the calibrated default) means unlimited, which keeps the
	// Table-1 numbers exact. Finite values give each partition a real
	// throughput ceiling — the per-partition capacity limit that makes
	// sharding matter at region scale.
	ShardConcurrency int
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		ReplicationLag: 50 * time.Millisecond,
		ShardCount:     1,
	}
}

// record is one stored key's state; the key itself is the map key. An
// overwrite updates the record in place, and its value copy takes a share
// of a value block, so a write allocates only when a block fills. Readers
// therefore copy what they return out of the record (as Get, eventualView
// and Scan do) and must never hold a *record across a park: a write that
// runs meanwhile would change it under them.
type record struct {
	value   []byte
	version int64 // 1 on a first write, and on a rewrite after Delete
	// prev is the value at version-1, what a lagging replica still
	// serves; at version 1 there is no previous version.
	prev      []byte
	writtenAt sim.Time
	// Cross-region replication stamps (see global.go): when and where the
	// write originated. Conflicts between regions resolve last-writer-wins
	// on (origin, originSrc).
	origin    sim.Time
	originSrc int
}

// slabRecords is how many records one slab chunk holds, and
// valueBlockBytes the size of one block of value copies.
const (
	slabRecords     = 128
	valueBlockBytes = 4096
)

// shard is one hash partition: a front end plus its slice of the key space.
type shard struct {
	fe    *service.Frontend
	items map[string]*record
	slab  []record // unused records of the current chunk
	// last is the value copy install made most recently; a write of
	// equal bytes shares it instead of copying again. Its spare capacity
	// is the unused tail of the value block it was copied into, where the
	// next copy goes, so one field holds both and a shard stays 64 bytes.
	last []byte
}

// newRecord carves a record for a first write out of the shard's slab,
// starting a new chunk when the current one is used up.
func (sh *shard) newRecord() *record {
	if len(sh.slab) == 0 {
		sh.slab = make([]record, slabRecords)
	}
	rec := &sh.slab[0]
	sh.slab = sh.slab[1:]
	return rec
}

// copyValue makes a copy of value the shard's last copy, placed in the
// value block right behind the previous one. A full block is replaced,
// never reused. A copy made while the shard has none, such as its first,
// often its only one (five experiments write one constant value to every
// key), gets a block of its own size; later ones share 4 KB blocks, and a
// value larger than a block gets a block of its own size. An empty value
// is nil.
func (sh *shard) copyValue(value []byte) {
	n := len(value)
	if n == 0 {
		sh.last = nil
		return
	}
	if cap(sh.last)-len(sh.last) < n {
		block := max(valueBlockBytes, n)
		if sh.last == nil {
			block = n
		}
		sh.last = make([]byte, 0, block)
	}
	sh.last = append(sh.last[len(sh.last):], value...)
}

// Store is a simulated key-value table, split over one or more shards.
type Store struct {
	name   string
	cfg    Config
	shards []*shard

	// Cross-region replication wiring (see global.go): the region stamp
	// this replica writes into records, and the hook a GlobalTable installs
	// to queue locally accepted writes for shipping to peer regions.
	origin  int
	onWrite func(key string, value []byte, origin sim.Time)
}

// New creates a table attached to the network in rack `rack`. With
// ShardCount 1 the single front end is named `name` and consumes rng
// directly (preserving seed-for-seed compatibility); with more shards each
// partition gets a forked stream and a node named `name-s<i>`.
func New(name string, net *netsim.Network, rack int, rng *simrand.RNG,
	cfg Config, catalog *pricing.Catalog, meter *pricing.Meter) *Store {
	n := cfg.ShardCount
	if n < 1 {
		n = 1
	}
	s := &Store{name: name, cfg: cfg, shards: make([]*shard, n)}
	for i := range s.shards {
		feName, feRNG := name, rng
		if n > 1 {
			feName = fmt.Sprintf("%s-s%d", name, i)
			feRNG = rng.Fork()
		}
		fe := service.NewFrontend(feName, net, rack, feRNG, opLatency, nicBps, catalog, meter)
		if cfg.ShardConcurrency > 0 {
			fe.LimitConcurrency(cfg.ShardConcurrency)
		}
		s.shards[i] = &shard{fe: fe, items: make(map[string]*record)}
	}
	return s
}

// Node returns the first shard's network endpoint (the table's endpoint
// when unsharded).
func (s *Store) Node() *netsim.Node { return s.shards[0].fe.Node() }

// Get reads a key. With consistent=false the read is eventually consistent:
// within the replication-lag window of a write it may return the previous
// version (or miss a brand-new key). Metering follows DynamoDB on-demand
// read units (half units for eventual reads).
func (s *Store) Get(p *sim.Proc, caller *netsim.Node, key string, consistent bool) (Item, error) {
	return s.get(p, caller, key, consistent, true)
}

// GetStep is Get for a step (see sim.Proc.WakeAfter), which must not park:
// it starts the read's round trip from c.Node(), whose end wakes into
// c.TripEnd, which takes the result with GetResult, passing the same key.
func (s *Store) GetStep(p *sim.Proc, c service.Caller, key string) {
	s.shardFor(key).fe.RoundTripStep(p, c, 0)
}

// GetResult ends a read GetStep started, at the step it woke into: it
// returns what Get would have returned there.
func (s *Store) GetResult(p *sim.Proc, key string, consistent bool) (Item, error) {
	return s.get(p, nil, key, consistent, false)
}

// get reads key. With trip set it is Get: it makes the read's round trip
// from caller and parks. Without, it is GetResult: the round trip GetStep
// started has just ended. Both share the read's tail (the admission
// outcome, the item lookup and the read-unit charge) in this one frame: a
// blocking Get runs it on the caller's coroutine stack, where a frame more
// below the caller would grow every pooled stack (see DESIGN.md "Kernel
// internals").
func (s *Store) get(p *sim.Proc, caller *netsim.Node, key string, consistent, trip bool) (Item, error) {
	sh := s.shardFor(key)
	var err error
	if trip {
		err = sh.fe.RoundTripErr(p, caller, 0)
	} else {
		err = service.TripErr(p)
	}
	if err != nil {
		return Item{}, err
	}
	// value and version are what the read found; version 0: nothing.
	var value []byte
	var version int64
	if rec := sh.items[key]; rec != nil && consistent {
		value, version = rec.value, rec.version
	} else if rec != nil {
		value, version = s.eventualView(sh, p.Now(), rec)
	}
	size := int64(0)
	if version > 0 {
		size = int64(len(key) + len(value))
	}
	sh.fe.Charge("dynamodb.read", pricing.DynamoReadUnits(size, consistent),
		sh.fe.Catalog().DynamoReadPerUnit)
	if version == 0 {
		return Item{}, ErrNotFound
	}
	return Item{Key: key, Value: value, Version: version}, nil
}

// eventualView resolves what an eventually consistent read of rec, a
// record of shard sh, observes: its value and version, or version 0 where
// the lagging replica has no version of the key yet.
func (s *Store) eventualView(sh *shard, now sim.Time, rec *record) ([]byte, int64) {
	if s.cfg.ReplicationLag <= 0 || now-rec.writtenAt >= s.cfg.ReplicationLag {
		return rec.value, rec.version
	}
	remain := float64(s.cfg.ReplicationLag-(now-rec.writtenAt)) / float64(s.cfg.ReplicationLag)
	if sh.fe.RNG().Float64() < remain {
		if rec.version == 1 {
			return nil, 0 // key did not exist on the lagging replica
		}
		return rec.prev, rec.version - 1
	}
	return rec.value, rec.version
}

// Put writes key unconditionally and returns the stored item.
func (s *Store) Put(p *sim.Proc, caller *netsim.Node, key string, value []byte) (Item, error) {
	return s.write(p, caller, key, value, nil)
}

// ConditionalPut writes key only if its current version equals
// expectVersion (0 means "key must not exist"). On mismatch it returns
// ErrConditionFailed. This is the primitive the bully election's blackboard
// uses to claim coordinatorship atomically.
func (s *Store) ConditionalPut(p *sim.Proc, caller *netsim.Node, key string,
	value []byte, expectVersion int64) (Item, error) {
	return s.write(p, caller, key, value, &expectVersion)
}

func (s *Store) write(p *sim.Proc, caller *netsim.Node, key string,
	value []byte, expect *int64) (Item, error) {
	if int64(len(key))+int64(len(value)) > MaxItemSize {
		return Item{}, ErrItemTooLarge
	}
	sh := s.shardFor(key)
	if err := sh.fe.RoundTripErr(p, caller, 0); err != nil {
		return Item{}, err
	}
	size := int64(len(key) + len(value))
	sh.fe.Charge("dynamodb.write", pricing.DynamoWriteUnits(size),
		sh.fe.Catalog().DynamoWritePerUnit)
	rec := sh.items[key]
	var curVer int64
	if rec != nil {
		curVer = rec.version
	}
	if expect != nil && *expect != curVer {
		return Item{}, fmt.Errorf("%w: %q at version %d, expected %d",
			ErrConditionFailed, key, curVer, *expect)
	}
	now := p.Now()
	rec = sh.install(key, rec, value, now, now, s.origin)
	it := Item{Key: key, Value: rec.value, Version: rec.version}
	if s.onWrite != nil {
		s.onWrite(key, it.Value, now)
	}
	return it, nil
}

// install stores value as key's next version: in place over rec, which
// keeps the value it replaces as prev, or in a fresh slab record when rec
// is nil. A value equal to the shard's last copy shares that copy;
// anything else is copied into the shard's value block and becomes the
// last copy. The record holds the copy capped at its length, so an
// append to an Item's Value reallocates instead of writing over the next
// copy. Stored values are immutable, never written over or reused for
// other bytes, so an Item handed out earlier keeps its bytes.
func (sh *shard) install(key string, rec *record, value []byte, now, origin sim.Time, originSrc int) *record {
	if !bytes.Equal(value, sh.last) {
		sh.copyValue(value)
	}
	v := slices.Clip(sh.last)
	if rec == nil {
		rec = sh.newRecord()
		*rec = record{value: v, version: 1}
		sh.items[key] = rec
	} else {
		rec.prev, rec.value = rec.value, v
		rec.version++
	}
	rec.writtenAt, rec.origin, rec.originSrc = now, origin, originSrc
	return rec
}

// applyReplicated installs a cross-region replicated write without a
// client round trip (the replicator already paid the WAN transfer and the
// write units). Conflicts resolve last-writer-wins on the originating
// write stamp, ties toward the lower source region; a duplicate or older
// delivery is a no-op. writtenAt is the local apply time, so eventual
// reads see the usual replication-lag window. Returns whether the item
// was applied.
func (s *Store) applyReplicated(now sim.Time, key string, value []byte, origin sim.Time, source int) bool {
	sh := s.shardFor(key)
	rec := sh.items[key]
	if rec != nil && (rec.origin > origin || (rec.origin == origin && rec.originSrc <= source)) {
		return false
	}
	sh.install(key, rec, value, now, origin, source)
	return true
}

// Delete removes a key; deleting a missing key is not an error. Delete and
// Scan stay on the void RoundTrip path: they are control-plane operations
// in every experiment, so an admission-controlled table that sheds them
// would panic loudly rather than silently drop a delete.
func (s *Store) Delete(p *sim.Proc, caller *netsim.Node, key string) {
	sh := s.shardFor(key)
	sh.fe.RoundTrip(p, caller, 0)
	var size int64 = 0
	if rec, ok := sh.items[key]; ok {
		size = int64(len(key) + len(rec.value))
		delete(sh.items, key)
		// The record stays in its slab chunk, which outlives it: drop
		// its values so they can be collected. A rewrite takes a fresh
		// record at version 1.
		*rec = record{}
	}
	sh.fe.Charge("dynamodb.write", pricing.DynamoWriteUnits(size),
		sh.fe.Catalog().DynamoWritePerUnit)
}

// Scan returns all items whose keys start with prefix, sorted by key,
// always strongly consistent. Read units are charged on the total bytes
// scanned — this is what makes fine-grained polling of a large blackboard
// so expensive in the election case study. On a sharded table the scan
// visits every shard in order (one round trip each) and merges the results.
func (s *Store) Scan(p *sim.Proc, caller *netsim.Node, prefix string) []Item {
	var out []Item
	for _, sh := range s.shards {
		var bytes int64
		shardStart := len(out)
		for k, rec := range sh.items {
			if strings.HasPrefix(k, prefix) {
				it := Item{Key: k, Value: rec.value, Version: rec.version}
				out = append(out, it)
				bytes += it.Size()
			}
		}
		sh.fe.RoundTrip(p, caller,
			time.Duration(len(out)-shardStart)*scanPerItem)
		sh.fe.Charge("dynamodb.read", pricing.DynamoReadUnits(bytes, true),
			sh.fe.Catalog().DynamoReadPerUnit)
	}
	slices.SortFunc(out, func(a, b Item) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// Len reports the number of stored keys across all shards (test hook; no
// simulated latency).
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += len(sh.items)
	}
	return n
}
