package kvstore

// Batch operations and item TTL, mirroring DynamoDB's BatchGetItem /
// BatchWriteItem (25-item limit, one round trip) and time-to-live
// expiration. Batching matters to the paper's cost story: it amortizes the
// per-request round trip but not the per-unit read/write charges, so the
// blackboard's economics barely move. On a sharded table a batch costs one
// round trip per partition it touches (visited in shard order), which is
// exactly how a partitioned DynamoDB table behaves under the covers.

import (
	"errors"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
)

// MaxBatchItems is DynamoDB's batch-operation limit.
const MaxBatchItems = 25

// ErrBatchTooBig is returned for batches above MaxBatchItems.
var ErrBatchTooBig = errors.New("kvstore: batch exceeds 25 items")

// BatchGet reads up to 25 keys in one round trip per shard touched. Missing
// keys are simply absent from the result (like DynamoDB). Consistency
// applies per item.
func (s *Store) BatchGet(p *sim.Proc, caller *netsim.Node, keys []string, consistent bool) (map[string]Item, error) {
	if len(keys) > MaxBatchItems {
		return nil, ErrBatchTooBig
	}
	out := make(map[string]Item, len(keys))
	// An empty batch is still one (pointless) API request, exactly as the
	// unsharded store treated it: a round trip plus a zero-unit charge.
	if len(keys) == 0 {
		sh := s.shards[0]
		sh.fe.RoundTrip(p, caller, 0)
		sh.fe.Charge("dynamodb.read", 0, sh.fe.Catalog().DynamoReadPerUnit)
		return out, nil
	}
	byShard := make([][]string, len(s.shards))
	for _, key := range keys {
		i := ShardIndex(key, len(s.shards))
		byShard[i] = append(byShard[i], key)
	}
	for i, shardKeys := range byShard {
		if len(shardKeys) == 0 {
			continue
		}
		sh := s.shards[i]
		if err := sh.fe.RoundTripErr(p, caller, 0); err != nil {
			// A rejected shard fails the whole batch (the items already read
			// from earlier shards are discarded, like a failed BatchGetItem).
			return nil, err
		}
		var units int64
		for _, key := range shardKeys {
			rec, ok := sh.items[key]
			if !ok || s.expired(sh, p.Now(), rec) {
				units += pricing.DynamoReadUnits(0, consistent)
				continue
			}
			it := rec.item
			if !consistent {
				var found bool
				it, found = s.eventualView(sh, p.Now(), rec)
				if !found {
					units += pricing.DynamoReadUnits(0, consistent)
					continue
				}
			}
			units += pricing.DynamoReadUnits(it.Size(), consistent)
			out[key] = it
		}
		sh.fe.Charge("dynamodb.read", units, sh.fe.Catalog().DynamoReadPerUnit)
	}
	return out, nil
}

// BatchWrite performs up to 25 puts in one round trip per shard touched
// (unconditional, like BatchWriteItem). Returns the stored items keyed by
// key.
func (s *Store) BatchWrite(p *sim.Proc, caller *netsim.Node, items map[string][]byte) (map[string]Item, error) {
	if len(items) > MaxBatchItems {
		return nil, ErrBatchTooBig
	}
	for k, v := range items {
		if int64(len(k))+int64(len(v)) > MaxItemSize {
			return nil, ErrItemTooLarge
		}
	}
	out := make(map[string]Item, len(items))
	// Match the unsharded store: an empty batch still pays a round trip.
	if len(items) == 0 {
		s.shards[0].fe.RoundTrip(p, caller, 0)
		return out, nil
	}
	byShard := make([]map[string][]byte, len(s.shards))
	for k, v := range items {
		i := ShardIndex(k, len(s.shards))
		if byShard[i] == nil {
			byShard[i] = make(map[string][]byte)
		}
		byShard[i][k] = v
	}
	for i, shardItems := range byShard {
		if len(shardItems) == 0 {
			continue
		}
		sh := s.shards[i]
		if err := sh.fe.RoundTripErr(p, caller, 0); err != nil {
			// Writes to earlier shards stand (a partial batch, like DynamoDB's
			// UnprocessedItems); the caller sees the admission error.
			return out, err
		}
		for k, v := range shardItems {
			size := int64(len(k) + len(v))
			sh.fe.Charge("dynamodb.write", pricing.DynamoWriteUnits(size),
				sh.fe.Catalog().DynamoWritePerUnit)
			rec := sh.items[k]
			var curVer int64
			var prev *Item
			if rec != nil {
				curVer = rec.item.Version
				prevCopy := rec.item
				prev = &prevCopy
			}
			// Overwrites clear any TTL, like writes that omit the TTL
			// attribute in DynamoDB.
			it := Item{Key: k, Value: append([]byte(nil), v...), Version: curVer + 1}
			sh.items[k] = &record{item: it, prev: prev, writtenAt: p.Now(), origin: p.Now(), originSrc: s.origin}
			if s.onWrite != nil {
				s.onWrite(k, it.Value, p.Now())
			}
			out[k] = it
		}
	}
	return out, nil
}

// SetTTL sets (or clears, with d <= 0) an expiry on a key, measured from
// now. Expired items behave as deleted on read and are reaped lazily.
func (s *Store) SetTTL(p *sim.Proc, caller *netsim.Node, key string, d time.Duration) error {
	sh := s.shardFor(key)
	if err := sh.fe.RoundTripErr(p, caller, 0); err != nil {
		return err
	}
	rec, ok := sh.items[key]
	if !ok {
		return ErrNotFound
	}
	sh.fe.Charge("dynamodb.write", pricing.DynamoWriteUnits(rec.item.Size()),
		sh.fe.Catalog().DynamoWritePerUnit)
	if d <= 0 {
		rec.expiresAt = 0
		return nil
	}
	rec.expiresAt = p.Now() + sim.Time(d)
	return nil
}

// expired reports whether rec is past its TTL at time now, deleting it from
// its shard lazily when so.
func (s *Store) expired(sh *shard, now sim.Time, rec *record) bool {
	if rec.expiresAt > 0 && now >= rec.expiresAt {
		delete(sh.items, rec.item.Key)
		return true
	}
	return false
}

// recordMap is a shard's item index.
type recordMap map[string]*record
