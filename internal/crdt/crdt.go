// Package crdt implements the conflict-free replicated data types the
// paper's §3.2 ("Can Limitations Set Us Free?") points to as the healthy
// response to FaaS's disorderly, loosely consistent execution model —
// "this kind of 'disorderly' loosely-consistent model has been at the
// heart of a number of more general-purpose proposals for scalable,
// available program design", citing Shapiro et al.'s CRDTs.
//
// Four classic state-based CRDTs are provided — G-Counter, PN-Counter,
// LWW-Register and OR-Set — each a join-semilattice: Merge is commutative,
// associative and idempotent (verified by property tests), so replicas
// converge no matter how staleness, retries and reordering scramble
// delivery. That is exactly the guarantee that makes them safe to run over
// the simulated cloud's eventually consistent storage, where the paper's
// stateful patterns break.
//
// Every lattice serializes itself with AppendJSON, a hand-written encoder
// whose output is byte-for-byte what encoding/json produces for the
// lattice's map-shaped wire form (sorted map keys included), so equal
// states always encode to equal bytes and a hash of the encoding is a
// sound convergence digest. Marshal wraps it.
//
// The counters keep one slot per replica in a slice sorted bytewise by
// replica id, which is the order the encoding lists them in: Inc, Value,
// Merge, AppendJSON and the decoder walk the slice, with no map hashing
// and no per-encode sort.
//
// Merge reports what the join did to the receiver's encoding, as
// (changed, equal): !changed means the encoding is unchanged, and equal
// means it is now exactly other's. A holder of a digest can then keep its
// own or take other's instead of re-encoding. The counters report both
// exactly; an LWW-Register's join is one side or the other, so it reports
// whether other won as both; an OR-Set always reports (true, false).
package crdt

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// GCounter is a grow-only counter: one monotone slot per replica.
type GCounter struct {
	// slots holds one count per replica, sorted bytewise by replica id,
	// so Inc and Merge find a replica by binary search or a merge walk and
	// AppendJSON emits encoding/json's sorted-key order without sorting.
	// A nil slice encodes as null, as a nil map does.
	slots []slot
}

// slot is one replica's count.
type slot struct {
	replica string
	n       int64
}

// NewGCounter returns an empty counter.
func NewGCounter() *GCounter {
	return &GCounter{slots: []slot{}}
}

// reset empties c, keeping its slot capacity. The slots stay non-nil, so
// the counter encodes as a new one does ({"counts":{}}).
func (c *GCounter) reset() {
	c.slots = c.slots[:0]
	if c.slots == nil {
		c.slots = []slot{}
	}
}

// Inc adds n (n >= 0) on behalf of replica. A replica's first Inc creates
// its slot, even at n == 0.
func (c *GCounter) Inc(replica string, n int64) {
	if n < 0 {
		panic("crdt: GCounter cannot decrease")
	}
	i, found := slices.BinarySearchFunc(c.slots, replica, func(s slot, r string) int {
		return strings.Compare(s.replica, r)
	})
	if !found {
		c.slots = slices.Insert(c.slots, i, slot{replica: replica})
	}
	c.slots[i].n += n
}

// Value returns the counter total.
func (c *GCounter) Value() int64 {
	var sum int64
	for _, s := range c.slots {
		sum += s.n
	}
	return sum
}

// Merge joins other into c (pointwise max). It reports whether c's
// encoding changed and whether it now equals other's, both exactly, from
// one walk of the two sorted slot lists that also raises c's shared slots
// in place. A replica c lacks is taken over only when its count is
// positive (an absent slot joined with a zero one stays absent); when the
// walk counted any, insertLacking adds them.
func (c *GCounter) Merge(other *GCounter) (changed, equal bool) {
	a, b := c.slots, other.slots
	equal = true
	taken := 0 // replicas c lacks that the join takes over
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case i < len(a) && j < len(b) && a[i].replica == b[j].replica:
			switch n := b[j].n; {
			case n > a[i].n:
				a[i].n = n
				changed = true
			case n < a[i].n:
				equal = false
			}
			i++
			j++
		case j == len(b) || i < len(a) && a[i].replica < b[j].replica:
			equal = false // a replica other lacks
			i++
		default: // a replica c lacks
			if b[j].n > 0 {
				taken++
				changed = true
			} else {
				equal = false
			}
			j++
		}
	}
	if taken > 0 {
		c.slots = insertLacking(a, b, len(a)+taken)
	}
	return changed, equal && (c.slots == nil) == (b == nil)
}

// insertLacking returns the n-slot join of a with every replica of b that a
// lacks and b counts positive, both sorted. It writes the join backward
// from the end: in place when a's capacity holds it, since every slot of a
// is read before its position is written, and into a new slice only when
// the capacity is short.
func insertLacking(a, b []slot, n int) []slot {
	var out []slot
	if n <= cap(a) {
		out = a[:n]
	} else {
		out = make([]slot, n, len(a)+len(b))
	}
	k := n - 1
	for i, j := len(a)-1, len(b)-1; i >= 0 || j >= 0; {
		if i >= 0 && (j < 0 || a[i].replica >= b[j].replica) {
			if j >= 0 && a[i].replica == b[j].replica {
				j--
			}
			out[k] = a[i]
			i, k = i-1, k-1
			continue
		}
		if b[j].n > 0 {
			out[k] = b[j]
			k--
		}
		j--
	}
	return out
}

// PNCounter supports increments and decrements as two G-Counters.
type PNCounter struct {
	P *GCounter `json:"p"`
	N *GCounter `json:"n"`
}

// NewPNCounter returns an empty counter.
func NewPNCounter() *PNCounter {
	return &PNCounter{P: NewGCounter(), N: NewGCounter()}
}

// Reset makes c equal to a new counter, keeping its slot capacity for the
// next decode into it (see ScanPNCounterInto).
func (c *PNCounter) Reset() {
	c.halves()
	c.P.reset()
	c.N.reset()
}

// halves gives c whichever of its two G-Counters it lacks.
func (c *PNCounter) halves() {
	if c.P == nil {
		c.P = &GCounter{}
	}
	if c.N == nil {
		c.N = &GCounter{}
	}
}

// Add applies a signed delta on behalf of replica.
func (c *PNCounter) Add(replica string, n int64) {
	if n >= 0 {
		c.P.Inc(replica, n)
	} else {
		c.N.Inc(replica, -n)
	}
}

// Value returns the net total.
func (c *PNCounter) Value() int64 { return c.P.Value() - c.N.Value() }

// Merge joins other into c, reporting changed and equal as
// GCounter.Merge does.
func (c *PNCounter) Merge(other *PNCounter) (changed, equal bool) {
	pc, pe := c.P.Merge(other.P)
	nc, ne := c.N.Merge(other.N)
	return pc || nc, pe && ne
}

// LWWRegister is a last-writer-wins register ordered by (timestamp,
// replica) so concurrent writes resolve deterministically.
type LWWRegister struct {
	Val     string `json:"val"`
	Stamp   int64  `json:"stamp"`
	Replica string `json:"replica"`
}

// Set writes val at the given timestamp on behalf of replica; writes that
// do not supersede the current state are ignored.
func (r *LWWRegister) Set(replica string, stamp int64, val string) {
	if r.wins(stamp, replica, val) {
		r.Val, r.Stamp, r.Replica = val, stamp, replica
	}
}

// wins reports whether (stamp, replica, val) supersedes the current state.
// The register is the join-semilattice of lexicographic maxima: timestamp
// first, then replica id, then — so that duplicated (stamp, replica) pairs
// still converge — the value itself.
func (r *LWWRegister) wins(stamp int64, replica, val string) bool {
	switch {
	case stamp != r.Stamp:
		return stamp > r.Stamp
	case replica != r.Replica:
		return replica > r.Replica
	default:
		return val > r.Val
	}
}

// Get returns the current value.
func (r *LWWRegister) Get() string { return r.Val }

// Merge joins other into r. The join is either r or other, so both
// reports are whether other won: then r changed and now equals other.
func (r *LWWRegister) Merge(other *LWWRegister) (changed, equal bool) {
	wins := r.wins(other.Stamp, other.Replica, other.Val)
	if wins {
		r.Val, r.Stamp, r.Replica = other.Val, other.Stamp, other.Replica
	}
	return wins, wins
}

// ORSet is an observed-remove set: adds are tagged uniquely per replica,
// removes tombstone the tags they have observed, so add/remove of the same
// element on different replicas resolves add-wins.
type ORSet struct {
	Adds map[string]map[string]bool `json:"adds"` // element -> tag set
	Dels map[string]map[string]bool `json:"dels"` // element -> removed tags
	seq  int64
}

// NewORSet returns an empty set.
func NewORSet() *ORSet {
	return &ORSet{
		Adds: make(map[string]map[string]bool),
		Dels: make(map[string]map[string]bool),
	}
}

// Add inserts element on behalf of replica.
func (s *ORSet) Add(replica, element string) {
	s.seq++
	tag := fmt.Sprintf("%s#%d", replica, s.seq)
	if s.Adds[element] == nil {
		s.Adds[element] = make(map[string]bool)
	}
	s.Adds[element][tag] = true
}

// Remove deletes element by tombstoning every tag observed so far;
// concurrent unseen adds survive (add-wins).
func (s *ORSet) Remove(element string) {
	for tag := range s.Adds[element] {
		if s.Dels[element] == nil {
			s.Dels[element] = make(map[string]bool)
		}
		s.Dels[element][tag] = true
	}
}

// Contains reports membership: any live (non-tombstoned) tag.
func (s *ORSet) Contains(element string) bool {
	for tag := range s.Adds[element] {
		if !s.Dels[element][tag] {
			return true
		}
	}
	return false
}

// Elements returns the live membership, sorted.
func (s *ORSet) Elements() []string {
	var out []string
	for e := range s.Adds {
		if s.Contains(e) {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}

// Merge joins other into s (union of adds and tombstones). It does not
// track what the union changed, so it always reports changed and never
// equal; callers re-encode the result.
func (s *ORSet) Merge(other *ORSet) (changed, equal bool) {
	for e, tags := range other.Adds {
		if s.Adds[e] == nil {
			s.Adds[e] = make(map[string]bool)
		}
		for t := range tags {
			s.Adds[e][t] = true
		}
	}
	for e, tags := range other.Dels {
		if s.Dels[e] == nil {
			s.Dels[e] = make(map[string]bool)
		}
		for t := range tags {
			s.Dels[e][t] = true
		}
	}
	if other.seq > s.seq {
		s.seq = other.seq
	}
	return true, false
}

// Marshal serializes a CRDT state for storage (the blackboard pattern).
func Marshal(v interface{ AppendJSON([]byte) []byte }) []byte {
	return v.AppendJSON(nil)
}

// UnmarshalGCounter decodes a stored G-Counter.
func UnmarshalGCounter(data []byte) (*GCounter, error) {
	if c, n, ok := ScanGCounter(data); ok && n == len(data) {
		return c, nil
	}
	return unmarshalGCounterJSON(data)
}

// gcounterWire and pncounterWire are the counters' wire shapes for the
// encoding/json fallback decoder.
type gcounterWire struct {
	Counts map[string]int64 `json:"counts"`
}

type pncounterWire struct {
	P *gcounterWire `json:"p"`
	N *gcounterWire `json:"n"`
}

// gcounter converts a decoded wire counter; a null or absent one decodes
// empty.
func (w *gcounterWire) gcounter() *GCounter {
	c := NewGCounter()
	if w == nil || len(w.Counts) == 0 {
		return c
	}
	c.slots = make([]slot, 0, len(w.Counts))
	for r, n := range w.Counts {
		c.slots = append(c.slots, slot{r, n})
	}
	slices.SortFunc(c.slots, func(a, b slot) int { return strings.Compare(a.replica, b.replica) })
	return c
}

func unmarshalGCounterJSON(data []byte) (*GCounter, error) {
	var w gcounterWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return w.gcounter(), nil
}

// UnmarshalPNCounter decodes a stored PN-Counter.
func UnmarshalPNCounter(data []byte) (*PNCounter, error) {
	c := &PNCounter{}
	if err := UnmarshalPNCounterInto(c, data); err != nil {
		return nil, err
	}
	return c, nil
}

// UnmarshalPNCounterInto is UnmarshalPNCounter decoding into c: canonical
// input goes through ScanPNCounterInto and reuses c's memory, anything
// else through encoding/json. On error c's contents are unspecified.
func UnmarshalPNCounterInto(c *PNCounter, data []byte) error {
	if n, ok := ScanPNCounterInto(c, data); ok && n == len(data) {
		return nil
	}
	v, err := unmarshalPNCounterJSON(data)
	if err != nil {
		return err
	}
	*c = *v
	return nil
}

func unmarshalPNCounterJSON(data []byte) (*PNCounter, error) {
	var w pncounterWire
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, err
	}
	return &PNCounter{P: w.P.gcounter(), N: w.N.gcounter()}, nil
}

// UnmarshalLWWRegister decodes a stored LWW register.
func UnmarshalLWWRegister(data []byte) (*LWWRegister, error) {
	r := &LWWRegister{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, err
	}
	return r, nil
}

// UnmarshalORSet decodes a stored OR-Set. The tag sequence counter is not
// part of the wire form, so it is rebuilt as the maximum sequence number
// appearing in any stored tag: a decoded set that keeps being mutated on
// behalf of the same replica must not mint tags that collide with (possibly
// tombstoned) ones it already issued, or add-wins breaks.
func UnmarshalORSet(data []byte) (*ORSet, error) {
	s := NewORSet()
	if err := json.Unmarshal(data, s); err != nil {
		return nil, err
	}
	if s.Adds == nil {
		s.Adds = make(map[string]map[string]bool)
	}
	if s.Dels == nil {
		s.Dels = make(map[string]map[string]bool)
	}
	// Scan tombstones too: a (corrupt or partial) state can carry removed
	// tags with no surviving add, and a re-minted colliding tag would be
	// born dead.
	for _, byElem := range []map[string]map[string]bool{s.Adds, s.Dels} {
		for _, tags := range byElem {
			for tag := range tags {
				if n := tagSeq(tag); n > s.seq {
					s.seq = n
				}
			}
		}
	}
	return s, nil
}

// tagSeq extracts the sequence number from an ORSet tag ("replica#N"),
// returning 0 for tags in any other shape.
func tagSeq(tag string) int64 {
	i := strings.LastIndexByte(tag, '#')
	if i < 0 {
		return 0
	}
	n, err := strconv.ParseInt(tag[i+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}
