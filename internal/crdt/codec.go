package crdt

// The wire codec. Each lattice appends its own JSON instead of going
// through encoding/json's reflection: the statecache re-serializes a
// lattice on every refresh to size and digest it, and gossip digests are
// FNV hashes of these bytes, so the encoders must emit exactly what
// json.Marshal emits for each lattice's map-shaped wire form — map keys
// sorted bytewise, null for nil maps (a counter's nil slot list) and
// pointers, strings escaped the way encoding/json escapes them.
// TestAppendJSONMatchesEncodingJSON pins that byte for byte.
//
// The counters also get a strict scanner that accepts only that canonical
// form (no whitespace, no escapes, no leading zeros, no null counts); any
// other input goes to encoding/json, so errors and decoded states stay
// encoding/json's.

import (
	"encoding/json"
	"slices"
	"strconv"
)

// AppendJSON appends the counter's JSON encoding to b.
func (c *GCounter) AppendJSON(b []byte) []byte {
	if c == nil {
		return append(b, "null"...)
	}
	b = append(b, `{"counts":`...)
	if c.slots == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '{')
		for i, s := range c.slots {
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
	c = &GCounter{}
	if n, ok = ScanGCounterInto(c, data); !ok {
		return nil, n, false
	}
	return c, n, true
}

// ScanGCounterInto is ScanGCounter decoding into c, which ends up equal to
// what ScanGCounter would return. It is the one counter decoder: it reuses
// c's slot capacity, and where a replica id matches the one c already held
// at the same slot position it keeps that string, so decoding a counter
// into one that holds the previous version of it allocates nothing. When
// ok is false c's contents are unspecified.
func ScanGCounterInto(c *GCounter, data []byte) (n int, ok bool) {
	s := scanner{b: data}
	ok = s.gcounter(c)
	return s.i, ok
}

// ScanPNCounterInto is ScanGCounterInto for a PN-Counter; it allocates c's
// halves only when they are nil.
func ScanPNCounterInto(c *PNCounter, data []byte) (n int, ok bool) {
	s := scanner{b: data}
	ok = s.pncounter(c)
	return s.i, ok
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

// ScanCanonicalInt consumes the integer at the start of s written exactly
// as strconv.AppendInt writes an int of the given bit size: an optional
// minus, then 0 or digits without a leading zero (so no -0), within range.
// It returns the value and the number of bytes consumed; ok is false when
// s does not begin with such an integer. It never allocates.
func ScanCanonicalInt[S string | []byte](s S, bits int) (v int64, n int, ok bool) {
	neg := len(s) > 0 && s[0] == '-'
	if neg {
		n = 1
	}
	limit := uint64(1)<<(bits-1) - 1 // the largest magnitude in range
	if neg {
		limit++
	}
	start := n
	var u uint64
	for ; n < len(s) && s[n] >= '0' && s[n] <= '9'; n++ {
		d := uint64(s[n] - '0')
		if u > (limit-d)/10 {
			return 0, 0, false
		}
		u = u*10 + d
	}
	if n == start || s[start] == '0' && (n-start > 1 || neg) {
		return 0, 0, false // no digits, a leading zero, or -0
	}
	if neg {
		return int64(-u), n, true
	}
	return int64(u), n, true
}

// keys counts the keys of the flat object whose '{' was just consumed, to
// size its slots once. Canonical keys hold no quote, so every key is
// exactly two quotes before the first '}' outside a string. The count is
// only a capacity hint; the walk that follows validates.
func (s *scanner) keys() int {
	quotes, inStr := 0, false
	for _, c := range s.b[s.i:] {
		switch {
		case c == '"':
			quotes++
			inStr = !inStr
		case c == '}' && !inStr:
			return quotes / 2
		}
	}
	return quotes / 2
}

// gcounter consumes {"counts":{...}} with strictly ascending keys into c.
// It rejects {"counts":null}: that decodes empty, which re-encodes as
// {"counts":{}}, and the scanner accepts only input that re-encodes to
// itself, so the encoding/json fallback decodes it instead.
func (s *scanner) gcounter(c *GCounter) bool {
	if !s.lit(`{"counts":{`) {
		return false
	}
	old := c.slots // read at position i before slot i is overwritten
	c.reset()
	if s.lit("}") {
		return s.lit("}")
	}
	if k := s.keys(); cap(c.slots) < k {
		c.slots = make([]slot, 0, k)
	}
	var prev []byte
	for i := 0; ; i++ {
		k, ok := s.str()
		if !ok || (i > 0 && string(k) <= string(prev)) || !s.lit(":") {
			return false
		}
		v, n, ok := ScanCanonicalInt(s.b[s.i:], 64)
		if !ok {
			return false
		}
		s.i += n
		var r string
		if i < len(old) && old[i].replica == string(k) {
			r = old[i].replica
		} else {
			r = string(k)
		}
		c.slots = append(c.slots, slot{r, v})
		prev = k
		if s.lit("}") {
			break
		}
		if !s.lit(",") {
			return false
		}
	}
	return s.lit("}")
}

// pncounter consumes {"p":G,"n":G} into c, each G a G-Counter (null is
// left to the fallback, as in gcounter).
func (s *scanner) pncounter(c *PNCounter) bool {
	if !s.lit(`{"p":`) {
		return false
	}
	c.halves()
	return s.gcounter(c.P) && s.lit(`,"n":`) && s.gcounter(c.N) && s.lit("}")
}
