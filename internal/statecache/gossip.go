package statecache

// Gossip anti-entropy. Every replica runs one round per GossipInterval
// against one uniformly random peer: first a reconciliation leg that
// finds the disagreeing keys — a digest exchange by default (per-key
// state hashes, O(keys) bytes), or a constant-size IBF summary under
// Config.Reconcile (O(diff) bytes; see recon.go) — then full lattice
// state for only the keys whose hashes differ, merged in both directions
// so the pair is identical when the round ends. The three messages
// (digest/summary, pull response, push) travel the netsim fabric through
// both VMs' NICs, so gossip bandwidth contends with the functions' own
// storage traffic.
//
// Determinism: peers are picked from the attach-ordered replica slice with
// the replica's own forked RNG; every key iteration is over sorted keys.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/crdt"
	"repro/internal/sim"
)

// entry is one cached lattice plus its gossip/flush bookkeeping.
type entry struct {
	g   *crdt.GCounter
	pn  *crdt.PNCounter
	reg *crdt.LWWRegister
	set *crdt.ORSet

	bytes     int64    // serialized footprint at last refresh
	hash      uint64   // FNV-1a of the serialized state (digest line)
	lastWrite sim.Time // latest originating local write merged in

	// staleSince remembers when a deferred refresh's growth appeared (see
	// stale below).
	staleSince sim.Time

	// storeKey is the backing-store key the write-behind flush writes the
	// entry under, built on the entry's first flush.
	storeKey string

	kind Kind

	// Local writes run at memory speed, so they must not pay a JSON
	// marshal per op: wrote() only flags the entry stale and the
	// footprint/hash are recomputed at the first consumer — a gossip
	// diff, a flush, a billing settlement (Cache.fresh), which bills the
	// growth from staleSince, not from when it was noticed.
	stale bool

	// sharedReg marks a register borrowed from the cluster's Preload
	// template; the entry must clone it before any mutation (unshare).
	sharedReg bool

	// rawDigest marks a digest unmarshalEntry took over stored bytes that
	// need not be the canonical encoding of the decoded state. It is still
	// sound to compare (unequal bytes only cost a merge), but merge must
	// not assign it to another entry.
	rawDigest bool
}

// unshare gives a preloaded entry its own register before a mutating
// Set or Merge, so the write cannot leak into every other preloaded
// entry sharing the template.
func (e *entry) unshare() {
	if !e.sharedReg {
		return
	}
	r := *e.reg
	e.reg = &r
	e.sharedReg = false
}

func newEntry(kind Kind) *entry {
	e := &entry{kind: kind}
	switch kind {
	case KindGCounter:
		e.g = crdt.NewGCounter()
	case KindPNCounter:
		e.pn = crdt.NewPNCounter()
	case KindRegister:
		e.reg = &crdt.LWWRegister{}
	case KindSet:
		e.set = crdt.NewORSet()
	default:
		panic(fmt.Sprintf("statecache: unknown kind %d", kind))
	}
	return e
}

// envelope is the wire/storage form of an entry: the lattice kind, its
// JSON state, and the originating-write stamp staleness tracking rides on.
// encode writes exactly what json.Marshal of this struct writes.
type envelope struct {
	Kind      Kind            `json:"kind"`
	State     json.RawMessage `json:"state"`
	LastWrite int64           `json:"lastWrite"`
}

// appendState appends just the lattice's encoding. crdt's hand-written
// encoders sort map keys and emit exactly encoding/json's bytes (pinned by
// crdt's TestAppendJSONMatchesEncodingJSON), so replicas holding equal
// lattice state produce identical bytes — which is what makes a byte hash
// a sound convergence digest.
func (e *entry) appendState(b []byte) []byte {
	switch e.kind {
	case KindGCounter:
		return e.g.AppendJSON(b)
	case KindPNCounter:
		return e.pn.AppendJSON(b)
	case KindRegister:
		return e.reg.AppendJSON(b)
	default:
		return e.set.AppendJSON(b)
	}
}

// encode appends the entry's storage and gossip-transfer form to b. The
// kvstore copies a written value once its round trip completes, so a
// flush can encode into a buffer it reuses, provided the buffer stays
// untouched while the write is in flight.
func (e *entry) encode(b []byte) []byte {
	// A fresh e.bytes is the state plus envelopeOverheadBytes, and the
	// framing never exceeds 52 bytes, so the slice never regrows.
	b = slices.Grow(b, int(e.bytes)+4)
	b = append(b, `{"kind":`...)
	b = strconv.AppendInt(b, int64(e.kind), 10)
	b = append(b, `,"state":`...)
	b = e.appendState(b)
	b = append(b, `,"lastWrite":`...)
	b = strconv.AppendInt(b, int64(e.lastWrite), 10)
	return append(b, '}')
}

// envelopeOverheadBytes approximates the envelope framing around the state
// payload when sizing an entry's storage/transfer footprint.
const envelopeOverheadBytes = 48

// decodeEntry parses a stored envelope back into a new entry.
func decodeEntry(data []byte) (*entry, error) {
	e := &entry{}
	if err := decodeEntryInto(e, data); err != nil {
		return nil, err
	}
	return e, nil
}

// decodeEntryInto parses a stored envelope into e, which ends up equal to
// what decodeEntry would return, every bookkeeping field included. A
// counter envelope exactly as encode writes it is scanned into e's own
// counter (see crdt.ScanPNCounterInto), so decoding a key's stored state
// into an entry that holds an earlier version of it allocates nothing;
// anything else goes through encoding/json. On error e's contents are
// unspecified.
func decodeEntryInto(e *entry, data []byte) error {
	if scanEntryInto(e, data) {
		return nil
	}
	u, err := unmarshalEntry(data)
	if err != nil {
		return err
	}
	*e = *u
	return nil
}

// scanEntryInto decodes a counter envelope in exactly the form encode
// writes into e, delimiting the state with the lattice's own scanner. It
// keeps only e's counter of the envelope's kind and resets every other
// field. It reports false for any other input, register and set envelopes
// included, and then e's contents are unspecified.
func scanEntryInto(e *entry, data []byte) bool {
	const head, mid, tail = `{"kind":`, `,"state":`, `,"lastWrite":`
	if len(data) <= len(head) || string(data[:len(head)]) != head {
		return false
	}
	kind := Kind(data[len(head)] - '0')
	rest, ok := bytes.CutPrefix(data[len(head)+1:], []byte(mid))
	if !ok {
		return false
	}
	var n int
	switch kind {
	case KindGCounter:
		if e.g == nil {
			e.g = &crdt.GCounter{}
		}
		*e = entry{kind: kind, g: e.g}
		n, ok = crdt.ScanGCounterInto(e.g, rest)
	case KindPNCounter:
		if e.pn == nil {
			e.pn = &crdt.PNCounter{}
		}
		*e = entry{kind: kind, pn: e.pn}
		n, ok = crdt.ScanPNCounterInto(e.pn, rest)
	default:
		ok = false
	}
	if !ok {
		return false
	}
	state := rest[:n]
	stamp, ok := bytes.CutPrefix(rest[n:], []byte(tail))
	if !ok {
		return false
	}
	stamp, ok = bytes.CutSuffix(stamp, []byte("}"))
	if !ok {
		return false
	}
	lastWrite, n, ok := crdt.ScanCanonicalInt(stamp, 64)
	if !ok || n != len(stamp) {
		return false // not the digits AppendInt writes: leading zeros, a sign, ...
	}
	e.lastWrite = sim.Time(lastWrite)
	e.digest(state)
	return true
}

// unmarshalEntry is decodeEntry's general path, for any JSON encoding of
// an envelope.
func unmarshalEntry(data []byte) (*entry, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, err
	}
	e := &entry{kind: env.Kind, lastWrite: sim.Time(env.LastWrite)}
	var err error
	switch env.Kind {
	case KindGCounter:
		e.g, err = crdt.UnmarshalGCounter(env.State)
	case KindPNCounter:
		e.pn, err = crdt.UnmarshalPNCounter(env.State)
	case KindRegister:
		e.reg, err = crdt.UnmarshalLWWRegister(env.State)
	case KindSet:
		e.set, err = crdt.UnmarshalORSet(env.State)
	default:
		err = fmt.Errorf("statecache: unknown kind %d", env.Kind)
	}
	if err != nil {
		return nil, err
	}
	// Digest the raw state bytes instead of re-marshaling the lattice just
	// decoded from them: for canonically encoded input (everything encode
	// produces) the hash and footprint are identical, and a non-canonical
	// encoding only makes the hash conservatively unequal — the comparison
	// consumers skip work on equality, so that stays sound. Merge never
	// adopts such a digest (rawDigest), since equal state would then be
	// assigned unequal hashes.
	e.digest(env.State)
	e.rawDigest = true
	return e, nil
}

// digest sets the footprint and the digest hash — FNV-1a over the kind
// byte then the state encoding — from the entry's encoded state.
func (e *entry) digest(state []byte) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	h = (h ^ uint64(e.kind)) * prime64
	for _, c := range state {
		h = (h ^ uint64(c)) * prime64
	}
	e.hash = h
	e.bytes = int64(len(state)) + envelopeOverheadBytes
}

// refresh recomputes the serialized footprint and digest hash after a
// mutation or merge, returning the change in footprint bytes. The state is
// encoded into *buf, a scratch buffer the caller owns, so a refresh does
// not allocate. The hash covers only kind+state, not lastWrite: replicas
// holding identical lattices may carry different write stamps (each merge
// keeps the max it has seen) and must still digest as equal.
func (e *entry) refresh(buf *[]byte) int64 {
	*buf = e.appendState((*buf)[:0])
	old := e.bytes
	e.digest(*buf)
	e.stale = false
	return e.bytes - old
}

// merge joins other into e, returning the footprint change; buf is the
// refresh scratch. Kinds must match (the caller's key addressed a
// different lattice otherwise).
//
// The lattice's Merge reports what the join did to e's encoding, which
// usually spares the re-encode: a join that changed nothing keeps e's
// digest, and a join that made e encode exactly as other takes other's
// digest, since equal bytes hash equal. Both shortcuts leave e exactly as
// refresh would, so digests stay the hash of the canonical encoding
// (TestEntryDigestIsCanonical). Keeping needs a digest that is current:
// e digested (a fresh entry's bytes include the envelope overhead, so 0
// means never) and not stale. Taking needs other's to be canonical: a
// fresh live entry's or scanEntryInto's, not one unmarshalEntry took over raw
// bytes.
func (e *entry) merge(other *entry, buf *[]byte) int64 {
	if other.kind != e.kind {
		panic(fmt.Sprintf("statecache: merging %v into %v", other.kind, e.kind))
	}
	var changed, equal bool
	switch e.kind {
	case KindGCounter:
		changed, equal = e.g.Merge(other.g)
	case KindPNCounter:
		changed, equal = e.pn.Merge(other.pn)
	case KindRegister:
		e.unshare()
		changed, equal = e.reg.Merge(other.reg)
	case KindSet:
		changed, equal = e.set.Merge(other.set)
	}
	if other.lastWrite > e.lastWrite {
		e.lastWrite = other.lastWrite
	}
	switch {
	case !changed && e.bytes != 0 && !e.stale:
		return 0
	case equal && !other.stale && !other.rawDigest:
		old := e.bytes
		e.hash, e.bytes, e.stale = other.hash, other.bytes, false
		return e.bytes - old
	}
	return e.refresh(buf)
}

// gossipOnce runs one anti-entropy round from c against one random peer:
// a reconciliation leg that computes the disagreeing keys (digest
// exchange by default, IBF summary under Config.Reconcile), then — when
// the pair actually differs — a pull response and a push so the pair is
// identical at round end. A round counts as complete only when every leg
// delivered and merged; a participant detaching mid-flight — or a WAN
// partition swallowing any leg — aborts the round into AbortedRounds
// instead, leaving both sides' state merely unconverged, never wrong.
func (c *Cache) gossipOnce(p *sim.Proc) {
	peer := c.pickPeer()
	if peer == nil {
		return
	}
	cl := c.cl
	cl.startedRounds++
	var diff []string
	var extraResp int64
	var aborted bool
	if cl.cfg.Reconcile {
		diff, extraResp, aborted = c.reconDiff(p, peer)
	} else {
		diff, aborted = c.digestDiff(p, peer)
	}
	if aborted {
		cl.abortedRounds++
		return
	}
	if len(diff) > 0 {
		// 2. The peer answers with its state for every key in the diff
		// (plus, on the IBF path, the element digests it could not name).
		resp := messageOverheadBytes + extraResp
		for _, k := range diff {
			if e := peer.entries[k]; e != nil {
				resp += e.bytes
			}
		}
		cl.bytesPayload += resp
		if !cl.net.SendMsg(p, peer.node, c.node, resp) || c.detached {
			cl.abortedRounds++
			return
		}
		c.mergeFrom(p.Now(), peer, diff)

		// 3. Push: c returns its (now joined) state for the same keys,
		// making the pair identical at round end.
		push := messageOverheadBytes
		for _, k := range diff {
			if e := c.entries[k]; e != nil {
				push += e.bytes
			}
		}
		cl.bytesPush += push
		if !cl.net.SendMsg(p, c.node, peer.node, push) || peer.detached {
			cl.abortedRounds++
			return
		}
		peer.mergeFrom(p.Now(), c, diff)
	}
	cl.gossipRounds++
}

// digestDiff runs the reconciliation leg of the default protocol: c
// ships one fixed-size digest line per cached key (the running
// key-length sum makes sizing O(1) instead of a walk over every key),
// and the peer compares it against its own entries. The diff covers keys
// missing from either side or hashing differently.
func (c *Cache) digestDiff(p *sim.Proc, peer *Cache) (diff []string, aborted bool) {
	cl := c.cl
	digest := messageOverheadBytes +
		c.keyBytes + int64(len(c.keys)*digestBytesPerKey)
	cl.bytesSummary += digest
	if !cl.net.SendMsg(p, c.node, peer.node, digest) || peer.detached {
		return nil, true // lost to a partition, or reclaimed in flight
	}
	return diffKeys(c, peer), false
}

// pickPeer selects one uniformly random gossip partner, honoring WAN
// reachability (a replica behind a severed trunk is not a candidate, so
// partitioned halves keep converging internally). It returns nil when no
// peer is reachable.
func (c *Cache) pickPeer() *Cache {
	cl := c.cl
	candidates := c.candScratch[:0]
	defer func() { c.candScratch = candidates[:0] }()
	for _, cand := range cl.replicas {
		if cand == c {
			continue
		}
		if !cl.net.Reachable(c.node, cand.node) {
			continue
		}
		candidates = append(candidates, cand)
	}
	if len(candidates) == 0 {
		return nil
	}
	return candidates[c.rng.Intn(len(candidates))]
}

// diffKeys returns, sorted, every key the two replicas disagree on: held
// by only one side, or hashing differently. Both sides' entries are
// freshened on the way, so the hashes compared (and the entry bytes the
// caller sizes transfers with) reflect every local write so far.
//
// Both replicas maintain their key sets pre-sorted, with each key's entry
// at the same index of ents, so the diff is a single merge walk that
// indexes instead of hashing — no map iteration (whose order would
// scramble the freshen-time billing settlements), no map lookup and no
// per-round sort. The result reuses a's scratch buffer: a is the round
// initiator, and one round is a single sequential process, so the buffer
// cannot be clobbered before the round finishes with it.
func diffKeys(a, b *Cache) []string {
	out := a.diffScratch[:0]
	ak, bk := a.keys, b.keys
	i, j := 0, 0
	for i < len(ak) || j < len(bk) {
		switch {
		case j >= len(bk) || (i < len(ak) && ak[i] < bk[j]):
			a.fresh(ak[i], a.ents[i])
			out = append(out, ak[i])
			i++
		case i >= len(ak) || bk[j] < ak[i]:
			b.fresh(bk[j], b.ents[j])
			out = append(out, bk[j])
			j++
		default: // both hold the key: compare freshened digests
			ae, be := a.ents[i], b.ents[j]
			a.fresh(ak[i], ae)
			b.fresh(bk[j], be)
			if ae.hash != be.hash {
				out = append(out, ak[i])
			}
			i++
			j++
		}
	}
	a.diffScratch = out
	return out
}

// mergeFrom joins src's entries for the given keys into c, sampling the
// staleness window for every merge that actually changed local state.
func (c *Cache) mergeFrom(now sim.Time, src *Cache, keys []string) {
	for _, k := range keys {
		se := src.entries[k]
		if se == nil {
			continue
		}
		src.fresh(k, se)
		e, ok := c.entries[k]
		if !ok {
			e = newEntry(se.kind)
			c.insert(k, e)
		}
		// Settle any deferred local growth first, so the merge delta and
		// the changed-state check are against a current footprint/hash.
		c.fresh(k, e)
		if ok && e.hash == se.hash && e.kind == se.kind {
			// Identical serialized state: the join is an identity, the
			// footprint delta zero and the digest unchanged, so the merge
			// (and its re-marshal) can be skipped outright. This is the
			// common push-direction case after the pull already equalized
			// the pair.
			if se.lastWrite > e.lastWrite {
				e.lastWrite = se.lastWrite
			}
			continue
		}
		before := e.hash
		c.reweigh(e.merge(se, &c.cl.encBuf))
		c.reconRehash(k, before, e.hash)
		if e.hash != before {
			c.cl.staleness.Add(time.Duration(now - se.lastWrite))
			c.cl.lastMerge = now
		}
	}
}
