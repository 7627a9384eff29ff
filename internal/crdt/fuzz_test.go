package crdt

// Native fuzz targets for the JSON round-trips. The statecache gossip and
// write-behind paths decode lattice state that came off the wire or out of
// the kvstore, so the decoders must (a) never panic on arbitrary bytes,
// (b) always return a usable value on success — no nil maps or counters
// that would crash the next Inc/Add — and (c) be stable:
// decode(encode(decode(x))) reproduces the same state bytes. Each target
// is also differential: a decoded value's AppendJSON matches json.Marshal
// (of a counter's map-shaped twin), and whenever a counter scanner accepts
// an input it decodes what encoding/json decodes. FuzzUnmarshalPNCounter
// is also differential between decoding into a new counter and into one
// that holds another decode. FuzzMergeOutcome holds the counters' Merge
// reports to their encodings.

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// checkMatchesEncodingJSON fails t unless v encodes exactly as json.Marshal
// encodes it (a counter's map-shaped twin, see mapShaped).
func checkMatchesEncodingJSON(t *testing.T, v interface{ AppendJSON([]byte) []byte }) {
	t.Helper()
	want, err := json.Marshal(mapShaped(v))
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	if got := Marshal(v); !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON %s != json.Marshal %s", got, want)
	}
}

// checkScanMatchesJSON fails t if scan accepts a prefix of data that the
// encoding/json decoder rejects or decodes differently.
func checkScanMatchesJSON[T any](t *testing.T, data []byte,
	scan func([]byte) (T, int, bool), unmarshal func([]byte) (T, error)) {
	t.Helper()
	got, n, ok := scan(data)
	if !ok {
		return
	}
	want, err := unmarshal(data[:n])
	if err != nil {
		t.Fatalf("scanner accepted %q, encoding/json rejects it: %v", data[:n], err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scanner decoded %q as %+v, encoding/json as %+v", data[:n], got, want)
	}
}

// prevPNInput is the input FuzzUnmarshalPNCounter ran before the current
// one (fuzz inputs run one at a time in each process).
var prevPNInput []byte

// checkWarmScratchMatchesFresh decodes data into scratch counters that
// already hold another decode — the previous fuzz input's and data's own —
// and fails t unless ScanPNCounterInto reports the n and ok a scan into a
// zero counter reports and UnmarshalPNCounterInto the error
// UnmarshalPNCounter reports, and each scratch then equals the fresh decode.
func checkWarmScratchMatchesFresh(t *testing.T, data []byte) {
	t.Helper()
	prev := prevPNInput
	prevPNInput = bytes.Clone(data)
	warm := func(from []byte) *PNCounter {
		var c PNCounter
		UnmarshalPNCounterInto(&c, from) // a failed decode leaves a scratch as warm
		return &c
	}
	fresh := &PNCounter{}
	n, ok := ScanPNCounterInto(fresh, data)
	want, wantErr := UnmarshalPNCounter(data)
	for _, from := range [][]byte{prev, data} {
		c := warm(from)
		gotN, gotOK := ScanPNCounterInto(c, data)
		if gotN != n || gotOK != ok {
			t.Fatalf("scan of %q into a scratch warm with %q = (%d, %v), fresh (%d, %v)", data, from, gotN, gotOK, n, ok)
		}
		if ok && !reflect.DeepEqual(c, fresh) {
			t.Fatalf("scan of %q into a scratch warm with %q = %+v, fresh %+v", data, from, c, fresh)
		}
		c = warm(from)
		err := UnmarshalPNCounterInto(c, data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode of %q into a scratch warm with %q: err %v, fresh err %v", data, from, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(c, want) {
			t.Fatalf("decode of %q into a scratch warm with %q = %+v, fresh %+v", data, from, c, want)
		}
	}
}

func FuzzUnmarshalGCounter(f *testing.F) {
	seedCounter := NewGCounter()
	seedCounter.Inc("r1", 5)
	seedCounter.Inc("r2", 9)
	f.Add(Marshal(seedCounter))
	f.Add([]byte(`{"counts":null}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`garbage`))
	f.Add([]byte(`{"counts":{"a":-0,"b":007}}`))
	f.Add([]byte(`{"counts":{"b":1,"a":2}} `))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScanMatchesJSON(t, data, ScanGCounter, unmarshalGCounterJSON)
		c, err := UnmarshalGCounter(data)
		if err != nil {
			return
		}
		checkMatchesEncodingJSON(t, c)
		c.Inc("fuzz", 1) // must not panic
		c.Merge(c)       // self-merge is the identity
		before := c.Value()
		rt, err := UnmarshalGCounter(Marshal(c))
		if err != nil {
			t.Fatalf("re-decode of a valid counter failed: %v", err)
		}
		if rt.Value() != before {
			t.Fatalf("round trip changed value: %d != %d", rt.Value(), before)
		}
		if !bytes.Equal(Marshal(rt), Marshal(c)) {
			t.Fatal("round trip changed serialized state")
		}
	})
}

func FuzzUnmarshalPNCounter(f *testing.F) {
	seedCounter := NewPNCounter()
	seedCounter.Add("r1", 5)
	seedCounter.Add("r2", -9)
	f.Add(Marshal(seedCounter))
	f.Add([]byte(`{"p":null,"n":null}`))
	f.Add([]byte(`{"p":{"counts":{"a":1}}}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"p":{"counts":{"x":9223372036854775807}},"n":{"counts":null}}`))
	f.Add([]byte(`{"p":{"counts":{"\u0041":1}},"n":null}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkScanMatchesJSON(t, data, func(b []byte) (*PNCounter, int, bool) {
			c := &PNCounter{}
			n, ok := ScanPNCounterInto(c, b)
			return c, n, ok
		}, unmarshalPNCounterJSON)
		checkWarmScratchMatchesFresh(t, data)
		c, err := UnmarshalPNCounter(data)
		if err != nil {
			return
		}
		checkMatchesEncodingJSON(t, c)
		c.Add("fuzz", -1)
		c.Merge(c)
		before := c.Value()
		rt, err := UnmarshalPNCounter(Marshal(c))
		if err != nil {
			t.Fatalf("re-decode of a valid counter failed: %v", err)
		}
		if rt.Value() != before {
			t.Fatalf("round trip changed value: %d != %d", rt.Value(), before)
		}
		if !bytes.Equal(Marshal(rt), Marshal(c)) {
			t.Fatal("round trip changed serialized state")
		}
	})
}

func FuzzUnmarshalLWWRegister(f *testing.F) {
	seedReg := &LWWRegister{}
	seedReg.Set("r1", 42, "hello")
	f.Add(Marshal(seedReg))
	f.Add([]byte(`{"val":"x","stamp":-1,"replica":""}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := UnmarshalLWWRegister(data)
		if err != nil {
			return
		}
		checkMatchesEncodingJSON(t, r)
		r.Merge(r) // idempotent
		before := *r
		rt, err := UnmarshalLWWRegister(Marshal(r))
		if err != nil {
			t.Fatalf("re-decode of a valid register failed: %v", err)
		}
		if *rt != before {
			t.Fatalf("round trip changed register: %+v != %+v", *rt, before)
		}
	})
}

func FuzzUnmarshalORSet(f *testing.F) {
	seedSet := NewORSet()
	seedSet.Add("r1", "a")
	seedSet.Add("r2", "b")
	seedSet.Remove("a")
	f.Add(Marshal(seedSet))
	f.Add([]byte(`{"adds":{"x":{"r#1":true}},"dels":null}`))
	f.Add([]byte(`{"adds":{"x":{"weird-tag":true}}}`))
	f.Add([]byte(`{}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalORSet(data)
		if err != nil {
			return
		}
		checkMatchesEncodingJSON(t, s)
		// The rebuilt tag counter must keep add-wins sound: re-adding an
		// element on behalf of a replica already present in the decoded
		// tags must mint a tag no tombstone covers.
		for _, e := range s.Elements() {
			_ = e
		}
		replica := "fuzz-replica"
		s.Add(replica, "reborn")
		if !s.Contains("reborn") {
			t.Fatal("fresh add not visible (tag collided with a tombstone)")
		}
		s.Merge(s)
		before := Marshal(s)
		rt, err := UnmarshalORSet(before)
		if err != nil {
			t.Fatalf("re-decode of a valid set failed: %v", err)
		}
		if !bytes.Equal(Marshal(rt), before) {
			t.Fatal("round trip changed serialized state")
		}
		// And the decoded set must behave identically on the next add.
		rt.Add(replica, "again")
		s.Add(replica, "again")
		if !bytes.Equal(Marshal(rt), Marshal(s)) {
			t.Fatal("decoded set minted a different tag than the original")
		}
	})
}

// gcounterFromBytes decodes a G-Counter from fuzzer bytes: each byte is one
// slot, its high bits picking one of eight replicas (so two counters hold
// disjoint, overlapping or equal replica sets) and its low bits a count in
// [-3, 12] (zero slots and the negative counts a stored counter may carry
// included; a repeated replica keeps its last count). An empty input
// gives a nil slot list when nilList is set, an empty one otherwise.
func gcounterFromBytes(data []byte, nilList bool) *GCounter {
	if len(data) == 0 && nilList {
		return &GCounter{}
	}
	counts := map[string]int64{}
	for _, b := range data {
		counts[string(rune('a'+b>>4&7))] = int64(b&0x0f) - 3
	}
	return gcounterOf(counts)
}

// pncounterFromBytes splits data in half for the P and N counters.
func pncounterFromBytes(data []byte, nilList bool) *PNCounter {
	h := len(data) / 2
	return &PNCounter{P: gcounterFromBytes(data[:h], nilList), N: gcounterFromBytes(data[h:], nilList)}
}

// mergeRef is the map-based join Merge must match: pointwise max, with a
// replica c lacks taken over only when its count is positive.
func mergeRef(c, other *GCounter) map[string]int64 {
	ref := countsOf(c)
	for r, n := range countsOf(other) {
		if n > ref[r] {
			if ref == nil {
				ref = map[string]int64{}
			}
			ref[r] = n
		}
	}
	return ref
}

// checkGCounterRef fails t unless got holds exactly the counts of want,
// with strictly ascending replicas and a nil slot list only for a nil map.
func checkGCounterRef(t *testing.T, got *GCounter, want map[string]int64) {
	t.Helper()
	if (got.slots == nil) != (want == nil) || !maps.Equal(countsOf(got), want) {
		t.Fatalf("merged counts %v (nil %v), map reference %v (nil %v)",
			countsOf(got), got.slots == nil, want, want == nil)
	}
	for i := 1; i < len(got.slots); i++ {
		if got.slots[i-1].replica >= got.slots[i].replica {
			t.Fatalf("slots out of order: %v", got.slots)
		}
	}
}

// FuzzMergeOutcome holds the counters' Merge reports to their encodings:
// changed is false exactly when the receiver's AppendJSON bytes are
// unchanged, and equal is true exactly when they now equal other's. The
// joined counts must match a map-based pointwise-max reference, and other
// must be left as it was.
func FuzzMergeOutcome(f *testing.F) {
	f.Add(false, uint8(0), []byte{}, []byte{})                                 // empty, empty
	f.Add(false, uint8(1), []byte{}, []byte{})                                 // nil, empty
	f.Add(false, uint8(2), []byte{}, []byte{})                                 // empty, nil
	f.Add(false, uint8(3), []byte{}, []byte{})                                 // nil, nil
	f.Add(true, uint8(1), []byte{}, []byte{0x03})                              // zero slot into nil lists
	f.Add(false, uint8(0), []byte{0x05, 0x17}, []byte{0x06, 0x17})             // equal sets, one dominated slot
	f.Add(false, uint8(0), []byte{0x05, 0x17}, []byte{0x28, 0x33})             // disjoint sets
	f.Add(false, uint8(0), []byte{0x05, 0x17, 0x29}, []byte{0x13, 0x2f, 0x3f}) // overlapping sets
	f.Add(true, uint8(0), []byte{0x05, 0x13, 0x24, 0x36}, []byte{0x05, 0x13, 0x24, 0x36})
	f.Add(true, uint8(3), []byte{0x01, 0x12}, []byte{0x0f, 0x03, 0x30, 0x44})
	f.Add(false, uint8(4), []byte{0x05, 0x29}, []byte{0x13, 0x2f, 0x3f, 0x45}) // grows in place
	f.Add(true, uint8(4), []byte{0x15, 0x29}, []byte{0x03, 0x2f, 0x13, 0x45})
	f.Fuzz(func(t *testing.T, pn bool, nils uint8, x, y []byte) {
		// Bit 0 of nils makes the receiver's empty slot lists nil, bit 1
		// other's. Bit 2 gives the receiver's non-nil slot lists room for
		// every replica, so the join is written in place.
		cNil, oNil, spare := nils&1 != 0, nils&2 != 0, nils&4 != 0
		grow := func(c *GCounter) {
			if spare && c.slots != nil {
				c.slots = slices.Grow(c.slots, 8)
			}
		}
		var c, other interface{ AppendJSON([]byte) []byte }
		var merge func() (bool, bool)
		var check func()
		if pn {
			cc, oc := pncounterFromBytes(x, cNil), pncounterFromBytes(y, oNil)
			grow(cc.P)
			grow(cc.N)
			wantP, wantN := mergeRef(cc.P, oc.P), mergeRef(cc.N, oc.N)
			c, other, merge = cc, oc, func() (bool, bool) { return cc.Merge(oc) }
			check = func() {
				checkGCounterRef(t, cc.P, wantP)
				checkGCounterRef(t, cc.N, wantN)
				if changed, equal := cc.Merge(cc); changed || !equal {
					t.Fatalf("self-merge reported changed %v, equal %v", changed, equal)
				}
			}
		} else {
			cc, oc := gcounterFromBytes(x, cNil), gcounterFromBytes(y, oNil)
			grow(cc)
			want := mergeRef(cc, oc)
			c, other, merge = cc, oc, func() (bool, bool) { return cc.Merge(oc) }
			check = func() {
				checkGCounterRef(t, cc, want)
				if changed, equal := cc.Merge(cc); changed || !equal {
					t.Fatalf("self-merge reported changed %v, equal %v", changed, equal)
				}
			}
		}
		before, otherBytes := Marshal(c), Marshal(other)
		changed, equal := merge()
		after := Marshal(c)
		if changed == bytes.Equal(before, after) {
			t.Fatalf("changed = %v, but %s became %s", changed, before, after)
		}
		if equal != bytes.Equal(after, otherBytes) {
			t.Fatalf("equal = %v, but the join %s vs other %s", equal, after, otherBytes)
		}
		if !bytes.Equal(Marshal(other), otherBytes) {
			t.Fatalf("merge modified other: %s became %s", otherBytes, Marshal(other))
		}
		check()
	})
}
