package statecache

// IBF set-reconciliation gossip (Config.Reconcile). Each replica keeps a
// live invertible Bloom filter summarizing its {key, state-hash} set,
// maintained incrementally: entries are folded in when created, and
// re-folded whenever a settle or merge changes their state hash. A round
// then ships the ~constant-size summary instead of the O(keys) digest;
// the receiver subtracts its own summary and peels out exactly the
// disagreeing keys, so the mostly-converged steady state costs O(diff)
// bytes and O(cells) work instead of O(keys) of both.
//
// Decode can fail when the difference outgrows the cell count. The
// escalation ladder rebuilds both summaries at 2× then 4× cells, and a
// still-failing decode falls back to the full digest exchange — so
// convergence never depends on decode success, and the digest protocol
// stays the reference oracle the IBF path is equivalence-tested against.

import (
	"slices"

	"repro/internal/recon"
	"repro/internal/sim"
)

// reconState is one replica's reconciliation bookkeeping (nil unless the
// cluster runs with Config.Reconcile).
type reconState struct {
	// live is the incrementally maintained summary of every entry's
	// (key digest, state hash) element.
	live *recon.Filter
	// elems resolves a peeled element back to its key. Distinct hashes of
	// the same key always produce distinct elements (the mixer is a
	// bijection per key); cross-key element collisions (~2⁻⁶⁴) only cost
	// a key its resolution for one round — the next round retries.
	elems map[uint64]string
	// stale lists keys whose deferred refresh hasn't been folded into the
	// filter yet, appended on the entry's not-stale→stale transition and
	// drained by settle (idempotent per key: fresh no-ops once settled).
	stale []string
	// dec is the subtract-and-peel scratch for rounds this replica decodes.
	dec recon.Decoder
}

// keyDigest is FNV-1a over the key string, inlined so the hot insert and
// rehash paths never allocate a hash.Hash.
func keyDigest(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// element digests one (key, state-hash) pair into the uint64 the filter
// reconciles. For a fixed key, distinct state hashes always yield
// distinct elements, so a hash change is always visible to the peer.
func element(keyHash, stateHash uint64) uint64 {
	return recon.Mix(keyHash ^ recon.Mix(stateHash^0xa24baed4963ee407))
}

// reconInsert folds a newly created entry into the live summary (at its
// current hash — zero for an entry that hasn't refreshed yet; the first
// settle moves it).
func (c *Cache) reconInsert(key string, e *entry) {
	if c.rc == nil {
		return
	}
	el := element(keyDigest(key), e.hash)
	c.rc.live.Add(el)
	c.rc.elems[el] = key
}

// reconRehash moves a key's element after its state hash changed.
func (c *Cache) reconRehash(key string, oldHash, newHash uint64) {
	if c.rc == nil || oldHash == newHash {
		return
	}
	kh := keyDigest(key)
	oldEl := element(kh, oldHash)
	c.rc.live.Remove(oldEl)
	delete(c.rc.elems, oldEl)
	newEl := element(kh, newHash)
	c.rc.live.Add(newEl)
	c.rc.elems[newEl] = key
}

// settleRecon settles every pending deferred refresh so the live filter
// and element map reflect all local writes. Cost is proportional to keys
// written since the last settle, not the key count.
func (c *Cache) settleRecon() {
	rc := c.rc
	for i, k := range rc.stale {
		c.fresh(k, c.entries[k])
		rc.stale[i] = "" // drop the string reference while keeping capacity
	}
	rc.stale = rc.stale[:0]
}

// rebuildFilter re-enumerates every entry into a filter of the given cell
// count — the O(keys) escalation path, paid only after the constant-size
// live summary failed to decode.
func (c *Cache) rebuildFilter(cells int) *recon.Filter {
	f := recon.New(cells)
	for i, k := range c.keys {
		f.Add(element(keyDigest(k), c.ents[i].hash))
	}
	return f
}

// resolveDiff decodes the symmetric difference of two summaries (fa of
// a's entries, fb of b's) and resolves the peeled elements into the
// sorted, deduplicated key list a gossip round merges — the IBF
// counterpart of diffKeys. onlyA counts the elements present only on a's
// side: b peels those but cannot name their keys, so their 8-byte
// digests ride the response message for a to resolve (the caller adds
// that to the response size). ok is false when peeling stalled; both
// replicas must be settled first. The result reuses a's diff scratch,
// like diffKeys.
func resolveDiff(a, b *Cache, fa, fb *recon.Filter) (diff []string, onlyA int, ok bool) {
	ea, eb, ok := b.rc.dec.Decode(fa, fb)
	if !ok {
		return nil, 0, false
	}
	out := a.diffScratch[:0]
	for _, x := range ea {
		if k, found := a.rc.elems[x]; found {
			out = append(out, k)
		}
	}
	for _, x := range eb {
		if k, found := b.rc.elems[x]; found {
			out = append(out, k)
		}
	}
	slices.Sort(out)
	out = slices.Compact(out)
	a.diffScratch = out
	return out, len(ea), true
}

// reconDiff runs the summary leg of an IBF round: ship the live summary,
// settle both sides, and peel the disagreeing keys. On decode failure the
// escalation ladder rebuilds both sides at 2× then 4× cells (a nack plus
// a re-sized summary per rung); if decode still fails it falls back to
// the full digest exchange, so the round always produces a correct diff.
func (c *Cache) reconDiff(p *sim.Proc, peer *Cache) (diff []string, extraResp int64, aborted bool) {
	cl := c.cl
	size := messageOverheadBytes + c.rc.live.WireBytes()
	cl.bytesSummary += size
	if !cl.net.SendMsg(p, c.node, peer.node, size) || peer.detached {
		return nil, 0, true
	}
	c.settleRecon()
	peer.settleRecon()
	if d, only, ok := resolveDiff(c, peer, c.rc.live, peer.rc.live); ok {
		return d, 8 * int64(only), false
	}
	for mult := 2; mult <= 4; mult *= 2 {
		nack := messageOverheadBytes
		cl.bytesSummary += nack
		if !cl.net.SendMsg(p, peer.node, c.node, nack) || c.detached {
			return nil, 0, true
		}
		// Each side settles and rebuilds at its own send/decode instant:
		// state can move while a summary is in flight, and a snapshot gone
		// stale only costs unresolved elements (caught by the next round),
		// never correctness.
		c.settleRecon()
		fc := c.rebuildFilter(mult * cl.cfg.ReconCells)
		size := messageOverheadBytes + fc.WireBytes()
		cl.bytesSummary += size
		if !cl.net.SendMsg(p, c.node, peer.node, size) || peer.detached {
			return nil, 0, true
		}
		peer.settleRecon()
		fp := peer.rebuildFilter(mult * cl.cfg.ReconCells)
		if d, only, ok := resolveDiff(c, peer, fc, fp); ok {
			return d, 8 * int64(only), false
		}
	}
	nack := messageOverheadBytes
	cl.bytesSummary += nack
	if !cl.net.SendMsg(p, peer.node, c.node, nack) || c.detached {
		return nil, 0, true
	}
	d, ab := c.digestDiff(p, peer)
	return d, 0, ab
}
