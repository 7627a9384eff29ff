package crdt

// The wire codec. Each lattice appends its own JSON instead of going
// through encoding/json's reflection: the statecache re-serializes a
// lattice on every refresh to size and digest it, and gossip digests are
// FNV hashes of these bytes, so the encoders must emit exactly what
// json.Marshal emits — map keys sorted bytewise, null for nil maps and
// pointers, strings escaped the way encoding/json escapes them.
// TestAppendJSONMatchesEncodingJSON pins that byte for byte.
//
// The counters also get a strict scanner that accepts only that canonical
// form (no whitespace, no escapes, no leading zeros); any other input goes
// to encoding/json, so errors and decoded states stay encoding/json's.

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"
)

// AppendJSON appends the counter's JSON encoding to b.
func (c *GCounter) AppendJSON(b []byte) []byte {
	if c == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"counts":`...)
	if c.Counts == nil {
		b = append(b, "null"...)
	} else {
		type slot struct {
			replica string
			n       int64
		}
		var arr [16]slot // up to 16 replicas sort on the stack: no allocation
		slots := arr[:0]
		for r, n := range c.Counts {
			slots = append(slots, slot{r, n})
		}
		slices.SortFunc(slots, func(a, b slot) int { return strings.Compare(a.replica, b.replica) })
		b = append(b, '{')
		for i, s := range slots {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, s.replica)
			b = append(b, ':')
			b = strconv.AppendInt(b, s.n, 10)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// AppendJSON appends the counter's JSON encoding to b.
func (c *PNCounter) AppendJSON(b []byte) []byte {
	if c == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"p":`...)
	b = c.P.AppendJSON(b)
	b = append(b, `,"n":`...)
	b = c.N.AppendJSON(b)
	return append(b, '}')
}

// AppendJSON appends the register's JSON encoding to b.
func (r *LWWRegister) AppendJSON(b []byte) []byte {
	if r == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"val":`...)
	b = appendString(b, r.Val)
	b = append(b, `,"stamp":`...)
	b = strconv.AppendInt(b, r.Stamp, 10)
	b = append(b, `,"replica":`...)
	b = appendString(b, r.Replica)
	return append(b, '}')
}

// AppendJSON appends the set's JSON encoding to b. The tag sequence
// counter is not part of the wire form (see UnmarshalORSet).
func (s *ORSet) AppendJSON(b []byte) []byte {
	if s == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"adds":`...)
	b = appendTagSets(b, s.Adds)
	b = append(b, `,"dels":`...)
	b = appendTagSets(b, s.Dels)
	return append(b, '}')
}

// appendTagSets encodes an element -> tag-set map.
func appendTagSets(b []byte, m map[string]map[string]bool) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	b = append(b, '{')
	for i, e := range sortedKeys(m) {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, e)
		b = append(b, ':')
		tags := m[e]
		if tags == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '{')
		for j, t := range sortedKeys(tags) {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendString(b, t)
			b = append(b, ':')
			b = strconv.AppendBool(b, tags[t])
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendString appends s as a JSON string. Safe ASCII is copied verbatim;
// anything else is left to encoding/json's own escaper, which keeps its
// HTML escaping, invalid-UTF-8 replacement and U+2028/U+2029 handling.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !safeByte(s[i]) {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// safeByte reports whether encoding/json copies c into a string verbatim.
func safeByte(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// ScanGCounter decodes the canonical encoding of a G-Counter — exactly the
// bytes AppendJSON emits — from the start of data, returning the counter
// and the length of its encoding. ok is false when data does not begin
// with that form; UnmarshalGCounter is the general decoder.
func ScanGCounter(data []byte) (c *GCounter, n int, ok bool) {
	s := scanner{b: data}
	c, ok = s.gcounter()
	return c, s.i, ok
}

// ScanPNCounter is ScanGCounter for a PN-Counter.
func ScanPNCounter(data []byte) (c *PNCounter, n int, ok bool) {
	s := scanner{b: data}
	c, ok = s.pncounter()
	return c, s.i, ok
}

// scanner walks canonical encoder output; every method reports false on
// the first byte that departs from it.
type scanner struct {
	b []byte
	i int
}

// lit consumes lit if the input continues with it.
func (s *scanner) lit(lit string) bool {
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// str consumes a string of safe bytes, returning its contents.
func (s *scanner) str() ([]byte, bool) {
	if !s.lit(`"`) {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) && safeByte(s.b[s.i]) {
		s.i++
	}
	end := s.i
	if !s.lit(`"`) {
		return nil, false
	}
	return s.b[start:end], true
}

// int consumes an integer as strconv.AppendInt writes it: an optional
// minus, then 0 or digits without a leading zero, within int64.
func (s *scanner) int() (int64, bool) {
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	digits := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	switch {
	case s.i == digits:
		return 0, false
	case s.b[digits] == '0' && s.i-start > 1: // leading zero, or -0
		return 0, false
	}
	n, err := strconv.ParseInt(string(s.b[start:s.i]), 10, 64)
	return n, err == nil
}

// gcounter consumes {"counts":null} or {"counts":{...}} with strictly
// ascending keys. A null map decodes empty, as UnmarshalGCounter leaves it.
func (s *scanner) gcounter() (*GCounter, bool) {
	if !s.lit(`{"counts":`) {
		return nil, false
	}
	c := NewGCounter()
	if !s.lit("null") {
		if !s.lit("{") {
			return nil, false
		}
		if !s.lit("}") {
			var prev []byte
			for i := 0; ; i++ {
				k, ok := s.str()
				if !ok || (i > 0 && string(k) <= string(prev)) || !s.lit(":") {
					return nil, false
				}
				v, ok := s.int()
				if !ok {
					return nil, false
				}
				c.Counts[string(k)] = v
				prev = k
				if s.lit("}") {
					break
				}
				if !s.lit(",") {
					return nil, false
				}
			}
		}
	}
	return c, s.lit("}")
}

// pncounter consumes {"p":G,"n":G}, each G null or a G-Counter.
func (s *scanner) pncounter() (*PNCounter, bool) {
	if !s.lit(`{"p":`) {
		return nil, false
	}
	p, ok := s.gcounterOrNull()
	if !ok || !s.lit(`,"n":`) {
		return nil, false
	}
	n, ok := s.gcounterOrNull()
	if !ok || !s.lit("}") {
		return nil, false
	}
	return &PNCounter{P: p, N: n}, true
}

func (s *scanner) gcounterOrNull() (*GCounter, bool) {
	if s.lit("null") {
		return NewGCounter(), true
	}
	return s.gcounter()
}
