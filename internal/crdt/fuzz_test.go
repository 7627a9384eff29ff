package crdt

// Native fuzz targets for the JSON round-trips. The statecache gossip and
// write-behind paths decode lattice state that came off the wire or out of
// the kvstore, so the decoders must (a) never panic on arbitrary bytes,
// (b) always return a usable value on success — no nil maps that would
// crash the next Inc/Add — and (c) be stable: decode(encode(decode(x)))
// reproduces the same state bytes. Each target is also differential: a
// decoded value's AppendJSON matches json.Marshal, and whenever a counter
// scanner accepts an input it decodes what encoding/json decodes.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// checkMatchesEncodingJSON fails t unless v encodes exactly as json.Marshal
// encodes it.
func checkMatchesEncodingJSON(t *testing.T, v interface{ AppendJSON([]byte) []byte }) {
	t.Helper()
	want, err := json.Marshal(v)
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
		c.Inc("fuzz", 1) // must not panic: maps are always initialized
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
		checkScanMatchesJSON(t, data, ScanPNCounter, unmarshalPNCounterJSON)
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
