package statecache

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// checkDigestsCanonical fails t unless every non-stale entry of every
// replica carries the footprint and digest of its lattice's canonical
// encoding — what refresh would compute now. Merges keep or take digests
// instead of recomputing them, so this is what keeps gossip's
// equal-digest-means-equal-state rule sound. It reports the first
// mismatch only, and whether there was none. It also checks that each
// replica's aligned entry slice holds the map's entry for every key. (It
// runs inside simulated processes, so it uses Errorf, not Fatalf.)
func checkDigestsCanonical(t *testing.T, when string, caches []*Cache) bool {
	t.Helper()
	for _, c := range caches {
		for i, key := range c.keys {
			e := c.entries[key]
			if c.ents[i] != e {
				t.Errorf("%s: replica %s key %q: entry at index %d is not the map's", when, c.replica, key, i)
				return false
			}
			if e.stale {
				continue
			}
			want := entry{kind: e.kind}
			want.digest(e.appendState(nil))
			if e.hash != want.hash || e.bytes != want.bytes {
				t.Errorf("%s: replica %s key %q: digest %x/%d, canonical %x/%d (state %s)",
					when, c.replica, key, e.hash, e.bytes, want.hash, want.bytes, e.appendState(nil))
				return false
			}
		}
	}
	return true
}

// storedCopy renders e as a stored envelope, with a space after every key
// when spaced is set: the same state, in bytes only the encoding/json
// decode path accepts.
func storedCopy(e *entry, spaced bool) []byte {
	state := e.appendState(nil)
	if spaced {
		state = bytes.ReplaceAll(state, []byte(`":`), []byte(`": `))
	}
	b := fmt.Appendf(nil, `{"kind":%d,"state":`, e.kind)
	b = append(b, state...)
	b = append(b, `,"lastWrite":`...)
	b = strconv.AppendInt(b, int64(e.lastWrite), 10)
	return append(b, '}')
}

// TestEntryDigestIsCanonical drives random writes to all four lattices,
// gossip merges and write-behind flushes whose stored envelopes are now
// and then replaced by copies of another replica's state, some in spaced
// (non-canonical) bytes, and checks the digest invariant throughout. A
// final scripted flush decodes a spaced envelope whose state dominates
// the local one, so the merge makes the entry equal to a state whose
// digest was taken over raw bytes.
func TestEntryDigestIsCanonical(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.GossipInterval = 30 * time.Millisecond
			cfg.FlushInterval = 120 * time.Millisecond
			f := newFixture(t, cfg, seed)
			caches := make([]*Cache, 4)
			for i := range caches {
				caches[i] = f.cl.Attach(f.node(t, fmt.Sprintf("vm-%d", i)))
			}
			keys := []string{"pn/a", "pn/b", "g/a", "g/b", "reg", "set"}
			rng := simrand.New(seed * 131)
			f.k.Spawn("writer", func(p *sim.Proc) {
				for op := 0; op < 600; op++ {
					c := caches[rng.Intn(len(caches))]
					switch key := keys[rng.Intn(len(keys))]; key[0] {
					case 'p':
						c.AddCounter(p, key, int64(rng.Intn(9)-4))
					case 'g':
						c.IncGCounter(p, key, int64(rng.Intn(4)))
					case 'r':
						c.SetRegister(p, key, fmt.Sprintf("v%d", op))
					default:
						if rng.Float64() < 0.7 {
							c.AddSet(p, key, fmt.Sprintf("e%d", rng.Intn(8)))
						} else {
							c.RemoveSet(p, key, fmt.Sprintf("e%d", rng.Intn(8)))
						}
					}
					p.Sleep(time.Duration(rng.Intn(2_000_000)))
				}
			})
			f.k.Spawn("store-writer", func(p *sim.Proc) {
				for i := 0; i < 40; i++ {
					p.Sleep(25 * time.Millisecond)
					c := caches[rng.Intn(len(caches))]
					key := keys[rng.Intn(len(keys))]
					e := c.entries[key]
					if e == nil {
						continue
					}
					c.fresh(key, e)
					if _, err := f.store.Put(p, c.node, "cache/"+key, storedCopy(e, i%3 == 0)); err != nil {
						t.Errorf("store write: %v", err)
					}
				}
			})
			f.k.Spawn("checker", func(p *sim.Proc) {
				for i := 0; i < 300; i++ {
					p.Sleep(5 * time.Millisecond)
					if !checkDigestsCanonical(t, fmt.Sprintf("t=%v", time.Duration(p.Now())), caches) {
						return
					}
				}
			})
			f.k.RunUntil(sim.Time(2 * time.Second))
			checkDigestsCanonical(t, "after the random run", caches)

			// The scripted flush: the store holds a spaced copy of a state
			// that strictly dominates c's, so c's join becomes exactly it.
			c := caches[0]
			f.k.Spawn("scripted", func(p *sim.Proc) {
				ahead := newEntry(KindPNCounter)
				ahead.pn.Add(c.replica, 5)
				ahead.lastWrite = p.Now()
				if _, err := f.store.Put(p, c.node, "cache/pn/solo", storedCopy(ahead, true)); err != nil {
					t.Errorf("store write: %v", err)
				}
				c.AddCounter(p, "pn/solo", 1)
				c.flushDirty(p)
				if got := c.PeekCounter("pn/solo"); got != 5 {
					t.Errorf("flush merge gave %d, want the stored 5", got)
				}
				checkDigestsCanonical(t, "after the scripted flush", caches)
			})
			f.k.RunUntil(f.k.Now() + sim.Time(time.Second))
		})
	}
}
