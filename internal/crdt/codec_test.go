package crdt

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestAppendJSONMatchesEncodingJSON pins the hand-written encoders to
// encoding/json byte for byte: gossip digests hash these bytes, and stored
// state written before the encoders existed must keep digesting equal.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	awkward := []string{
		"", "plain", `quo"te`, `back\slash`, "<tag>&amp;", "ctl\x00\x01\x1f\t\n\x7f",
		"héllo wörld", "\u2028line\u2029para", "bad\xffutf8\xc3", "emoji 🙂",
	}
	for c := 0; c < 256; c++ { // every byte alone, so no case hides behind another
		awkward = append(awkward, "x"+string([]byte{byte(c)})+"y")
	}
	counts := map[string]int64{"min": math.MinInt64, "max": math.MaxInt64, "zero": 0, "neg": -7}
	for i, k := range awkward {
		counts[k] = int64(i)
	}
	tags := map[string]bool{"r#1": true, "r#2": false}
	for _, k := range awkward {
		tags[k] = len(k)%2 == 0
	}

	cases := map[string]interface{ AppendJSON([]byte) []byte }{
		"gcounter/nil map":    &GCounter{},
		"gcounter/empty":      NewGCounter(),
		"gcounter/awkward":    gcounterOf(counts),
		"gcounter/nil":        (*GCounter)(nil),
		"pncounter/nil P N":   &PNCounter{},
		"pncounter/nil maps":  &PNCounter{P: &GCounter{}, N: &GCounter{}},
		"pncounter/empty":     NewPNCounter(),
		"pncounter/awkward":   &PNCounter{P: gcounterOf(counts), N: gcounterOf(map[string]int64{"a": 1})},
		"register/empty":      &LWWRegister{},
		"register/extremes":   &LWWRegister{Val: "", Stamp: math.MinInt64, Replica: ""},
		"register/max stamp":  &LWWRegister{Val: "v", Stamp: math.MaxInt64, Replica: "r"},
		"orset/nil maps":      &ORSet{},
		"orset/empty":         NewORSet(),
		"orset/nil inner map": &ORSet{Adds: map[string]map[string]bool{"x": nil}, Dels: map[string]map[string]bool{"": {}}},
		"orset/false tag":     &ORSet{Adds: map[string]map[string]bool{"x": {"r#1": false}}},
	}
	for i, s := range awkward {
		cases["register/"+s] = &LWWRegister{Val: s, Stamp: int64(i), Replica: s}
		cases["orset/"+s] = &ORSet{
			Adds: map[string]map[string]bool{s: tags, "other": {s: true}},
			Dels: map[string]map[string]bool{s: {s: false}},
		}
	}
	for name, v := range cases {
		want, err := json.Marshal(mapShaped(v))
		if err != nil {
			t.Fatalf("%s: json.Marshal: %v", name, err)
		}
		if got := v.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Errorf("%s:\n AppendJSON   %s\n json.Marshal %s", name, got, want)
		}
		// Appending must not disturb what the buffer already holds.
		if got := v.AppendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("%s: AppendJSON clobbered its buffer: %s", name, got)
		}
	}
}

// gcounterOf builds a counter holding exactly counts; a nil map gives a
// counter with a nil slot list, which encodes its counts as null.
func gcounterOf(counts map[string]int64) *GCounter {
	if counts == nil {
		return &GCounter{}
	}
	c := NewGCounter()
	for r, n := range counts {
		c.slots = append(c.slots, slot{r, n})
	}
	slices.SortFunc(c.slots, func(a, b slot) int { return strings.Compare(a.replica, b.replica) })
	return c
}

// countsOf returns c's slots as a map (nil for a nil slot list).
func countsOf(c *GCounter) map[string]int64 {
	if c.slots == nil {
		return nil
	}
	m := make(map[string]int64, len(c.slots))
	for _, s := range c.slots {
		m[s.replica] = s.n
	}
	return m
}

// mapGCounter and mapPNCounter are the counters' map-shaped wire form:
// marshalled by encoding/json, they are the oracle the hand-written
// encoders must match byte for byte.
type mapGCounter struct {
	Counts map[string]int64 `json:"counts"`
}

type mapPNCounter struct {
	P *mapGCounter `json:"p"`
	N *mapGCounter `json:"n"`
}

func mapShapedG(c *GCounter) *mapGCounter {
	if c == nil {
		return nil
	}
	return &mapGCounter{Counts: countsOf(c)}
}

// mapShaped returns the value encoding/json must marshal to give v's
// encoding: the map-shaped twin of a counter, v itself otherwise.
func mapShaped(v any) any {
	switch c := v.(type) {
	case *GCounter:
		return mapShapedG(c)
	case *PNCounter:
		if c == nil {
			return (*mapPNCounter)(nil)
		}
		return &mapPNCounter{P: mapShapedG(c.P), N: mapShapedG(c.N)}
	}
	return v
}

// TestScanCanonicalInt holds ScanCanonicalInt to its definition, the
// strconv round trip: the leading run of an optional minus and digits is
// accepted exactly when strconv.ParseInt reads it within bits and
// strconv.AppendInt writes the value back as the same bytes.
func TestScanCanonicalInt(t *testing.T) {
	inputs := []string{
		"", "-", "0", "-0", "00", "01", "-01", "7", "-7", "42}", "1,", "+1", " 1", "1 ",
		"127", "128", "-128", "-129", "255", "32767", "-32768", "2147483647", "2147483648",
		"-2147483648", "-2147483649", "9223372036854775807", "9223372036854775808",
		"-9223372036854775808", "-9223372036854775809", "18446744073709551616",
		"99999999999999999999999", "1e3", "-x", "0x1f",
	}
	for _, s := range inputs {
		for _, bits := range []int{8, 16, 32, 64} {
			i := 0
			if i < len(s) && s[i] == '-' {
				i++
			}
			for i < len(s) && s[i] >= '0' && s[i] <= '9' {
				i++
			}
			want, err := strconv.ParseInt(s[:i], 10, bits)
			wantOK := err == nil && strconv.FormatInt(want, 10) == s[:i]
			v, n, ok := ScanCanonicalInt(s, bits)
			if ok != wantOK || ok && (v != want || n != i) {
				t.Errorf("ScanCanonicalInt(%q, %d) = %d, %d, %v; want %d, %d, %v", s, bits, v, n, ok, want, i, wantOK)
			}
			bv, bn, bok := ScanCanonicalInt([]byte(s), bits)
			if bv != v || bn != n || bok != ok {
				t.Errorf("ScanCanonicalInt([]byte(%q), %d) = %d, %d, %v; the string form gives %d, %d, %v", s, bits, bv, bn, bok, v, n, ok)
			}
		}
	}
	b := []byte("-9223372036854775808,")
	if allocs := testing.AllocsPerRun(100, func() {
		ScanCanonicalInt(b, 64)
		ScanCanonicalInt("123}", 64)
	}); allocs != 0 {
		t.Errorf("ScanCanonicalInt allocates %v times per call pair, want 0", allocs)
	}
}

// TestScanIntoWarmScratch decodes two counters into one scratch, the
// second with a different replica at a slot position the first filled:
// the scratch must then equal a fresh decode of the second, and keep
// nothing of the first.
func TestScanIntoWarmScratch(t *testing.T) {
	a := &PNCounter{
		P: gcounterOf(map[string]int64{"vm-1#1": 4, "vm-2#2": 9, "vm-3#3": 1}),
		N: gcounterOf(map[string]int64{"vm-2#2": 2}),
	}
	b := &PNCounter{
		P: gcounterOf(map[string]int64{"vm-1#1": 5, "vm-4#4": 7}), // vm-4#4 where vm-2#2 was
		N: gcounterOf(map[string]int64{}),
	}
	encA, encB := Marshal(a), Marshal(b)
	var scratch PNCounter
	if n, ok := ScanPNCounterInto(&scratch, encA); !ok || n != len(encA) {
		t.Fatalf("scan of A = (%d, %v), want (%d, true)", n, ok, len(encA))
	}
	if n, ok := ScanPNCounterInto(&scratch, encB); !ok || n != len(encB) {
		t.Fatalf("scan of B = (%d, %v), want (%d, true)", n, ok, len(encB))
	}
	fresh := &PNCounter{}
	ScanPNCounterInto(fresh, encB)
	if !reflect.DeepEqual(&scratch, fresh) {
		t.Fatalf("B into A's scratch = %s, fresh decode = %s", Marshal(&scratch), Marshal(fresh))
	}
	if got := Marshal(&scratch); !bytes.Equal(got, encB) {
		t.Fatalf("B into A's scratch re-encodes as %s, want %s", got, encB)
	}
	if scratch.P.slots[0].replica != "vm-1#1" || scratch.P.slots[1].replica != "vm-4#4" {
		t.Fatalf("scratch replicas = %+v", scratch.P.slots)
	}
}

// TestScanIntoWarmScratchAllocatesNothing pins the point of decoding into
// a scratch: a counter decoded into one holding its previous version — the
// same replicas, other counts — allocates nothing.
func TestScanIntoWarmScratchAllocatesNothing(t *testing.T) {
	c := NewPNCounter()
	for i := 0; i < 8; i++ {
		c.Add("vm-"+strconv.Itoa(i), int64(i-4))
	}
	prev := Marshal(c)
	c.Add("vm-3", 1)
	next := Marshal(c)
	var scratch PNCounter
	if err := UnmarshalPNCounterInto(&scratch, prev); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := UnmarshalPNCounterInto(&scratch, next); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("decode into a warm scratch made %v allocations, want 0", allocs)
	}
	if scratch.Value() != c.Value() {
		t.Fatalf("scratch value %d, want %d", scratch.Value(), c.Value())
	}
}
