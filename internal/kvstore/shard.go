package kvstore

// Shard routing and the hot-shard observability surface. Keys map to
// partitions by FNV-1a hash, the stable, dependency-free choice: the same
// key always lands on the same shard for a given shard count, across stores
// and across runs.

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/service"
)

// fnv1a64 hashes key with the 64-bit FNV-1a function.
func fnv1a64(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// ShardIndex maps key to a partition index in [0, n): the routing every
// n-shard Store applies, so a key's owner is known without a store.
func ShardIndex(key string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(fnv1a64(key) % uint64(n))
}

// shardFor returns the shard owning key.
func (s *Store) shardFor(key string) *shard {
	return s.shards[ShardIndex(key, len(s.shards))]
}

// ShardCount reports how many partitions the table has.
func (s *Store) ShardCount() int { return len(s.shards) }

// ShardFor reports which partition owns key (routing test hook).
func (s *Store) ShardFor(key string) int {
	return ShardIndex(key, len(s.shards))
}

// ShardNode returns partition i's network endpoint.
func (s *Store) ShardNode(i int) *netsim.Node { return s.shards[i].fe.Node() }

// ShardFrontend returns partition i's service front end, the handle for
// admission control (SetAdmission) and chaos injection (SlowFrontendAt) on
// a single hot shard.
func (s *Store) ShardFrontend(i int) *service.Frontend { return s.shards[i].fe }

// SetAdmission applies one admission-control configuration to every
// shard's front end (callers reaching a sharded table spread over all of
// them; per-shard control is available via ShardFrontend).
func (s *Store) SetAdmission(cfg service.AdmissionConfig) {
	for _, sh := range s.shards {
		sh.fe.SetAdmission(cfg)
	}
}

// ShardStat summarizes one partition's traffic — the hot-shard surface a
// region operator would watch.
type ShardStat struct {
	Shard    int
	Node     string        // front-end node name
	Requests int64         // API round trips served by this shard
	Busy     time.Duration // cumulative service time spent
	Queued   int           // requests currently waiting for a service slot
	Items    int           // keys resident on this shard
}

// ShardStats returns per-partition traffic counters, indexed by shard.
func (s *Store) ShardStats() []ShardStat {
	out := make([]ShardStat, len(s.shards))
	for i, sh := range s.shards {
		fs := sh.fe.Stats()
		out[i] = ShardStat{
			Shard:    i,
			Node:     sh.fe.Name(),
			Requests: fs.Requests,
			Busy:     fs.Busy,
			Queued:   sh.fe.QueueDepth(),
			Items:    len(sh.items),
		}
	}
	return out
}
