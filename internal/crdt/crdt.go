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
// whose output is byte-for-byte what encoding/json produces (sorted map
// keys included), so equal states always encode to equal bytes and a hash
// of the encoding is a sound convergence digest. Marshal wraps it.
package crdt

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// GCounter is a grow-only counter: one monotone slot per replica.
type GCounter struct {
	Counts map[string]int64 `json:"counts"`
}

// NewGCounter returns an empty counter.
func NewGCounter() *GCounter {
	return &GCounter{Counts: make(map[string]int64)}
}

// Inc adds n (n >= 0) on behalf of replica.
func (c *GCounter) Inc(replica string, n int64) {
	if n < 0 {
		panic("crdt: GCounter cannot decrease")
	}
	c.Counts[replica] += n
}

// Value returns the counter total.
func (c *GCounter) Value() int64 {
	var sum int64
	for _, v := range c.Counts {
		sum += v
	}
	return sum
}

// Merge joins other into c (pointwise max).
func (c *GCounter) Merge(other *GCounter) {
	for r, v := range other.Counts {
		if v > c.Counts[r] {
			c.Counts[r] = v
		}
	}
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

// Merge joins other into c.
func (c *PNCounter) Merge(other *PNCounter) {
	c.P.Merge(other.P)
	c.N.Merge(other.N)
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

// Merge joins other into r.
func (r *LWWRegister) Merge(other *LWWRegister) {
	if r.wins(other.Stamp, other.Replica, other.Val) {
		r.Val, r.Stamp, r.Replica = other.Val, other.Stamp, other.Replica
	}
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

// Merge joins other into s (union of adds and tombstones).
func (s *ORSet) Merge(other *ORSet) {
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

func unmarshalGCounterJSON(data []byte) (*GCounter, error) {
	c := NewGCounter()
	if err := json.Unmarshal(data, c); err != nil {
		return nil, err
	}
	if c.Counts == nil {
		c.Counts = make(map[string]int64)
	}
	return c, nil
}

// UnmarshalPNCounter decodes a stored PN-Counter.
func UnmarshalPNCounter(data []byte) (*PNCounter, error) {
	if c, n, ok := ScanPNCounter(data); ok && n == len(data) {
		return c, nil
	}
	return unmarshalPNCounterJSON(data)
}

func unmarshalPNCounterJSON(data []byte) (*PNCounter, error) {
	c := NewPNCounter()
	if err := json.Unmarshal(data, c); err != nil {
		return nil, err
	}
	if c.P == nil || c.P.Counts == nil {
		c.P = NewGCounter()
	}
	if c.N == nil || c.N.Counts == nil {
		c.N = NewGCounter()
	}
	return c, nil
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
