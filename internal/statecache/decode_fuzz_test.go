package statecache

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"reflect"
	"testing"
)

// FuzzDecodeEntry holds decodeEntry's canonical-envelope fast path to the
// encoding/json path it short-circuits: on any input both fail, or both
// decode the same kind, write stamp, lattice, footprint and digest — and
// the digest is FNV-1a over the kind byte and the raw state bytes. It also
// holds decoding into a scratch entry, as the write-behind flush does, to
// decoding into a new one (see checkWarmScratchMatchesFresh).
func FuzzDecodeEntry(f *testing.F) {
	for _, kind := range []Kind{KindGCounter, KindPNCounter, KindRegister, KindSet} {
		e := newEntry(kind)
		switch kind {
		case KindGCounter:
			e.g.Inc("vm-1#1", 5)
			e.g.Inc("vm-2#2", 7)
		case KindPNCounter:
			e.pn.Add("vm-1#1", -3)
			e.pn.Add("vm-2#2", 4)
		case KindRegister:
			e.reg.Set("vm-1#1", 10, "v")
		case KindSet:
			e.set.Add("vm-1#1", "x")
			e.set.Remove("x")
			e.set.Add("vm-2#2", "y")
		}
		e.lastWrite = 123456789
		f.Add(e.encode(nil))
	}
	f.Add([]byte(`{"kind":2,"state":{"p":null,"n":null},"lastWrite":-0}`))
	f.Add([]byte(`{"kind":1,"state":{"counts":{}},"lastWrite":01}`))
	f.Add([]byte(`{"kind":1, "state":{"counts":{"a":1}},"lastWrite":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWarmScratchMatchesFresh(t, data)
		got, gotErr := decodeEntry(data)
		want, wantErr := unmarshalEntry(data)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decodeEntry err %v, encoding/json path err %v", gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if got.kind != want.kind || got.lastWrite != want.lastWrite {
			t.Fatalf("kind/lastWrite %v/%d, encoding/json path %v/%d", got.kind, got.lastWrite, want.kind, want.lastWrite)
		}
		if got.hash != want.hash || got.bytes != want.bytes {
			t.Fatalf("hash/bytes %x/%d, encoding/json path %x/%d", got.hash, got.bytes, want.hash, want.bytes)
		}
		if !reflect.DeepEqual(got.g, want.g) || !reflect.DeepEqual(got.pn, want.pn) ||
			!reflect.DeepEqual(got.reg, want.reg) || !reflect.DeepEqual(got.set, want.set) {
			t.Fatalf("decoded lattices differ: %s vs %s", got.appendState(nil), want.appendState(nil))
		}
		if !bytes.Equal(got.appendState(nil), want.appendState(nil)) {
			t.Fatal("decoded lattices re-encode differently")
		}
		var env envelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatalf("envelope: %v", err)
		}
		h := fnv.New64a()
		h.Write([]byte{byte(env.Kind)})
		h.Write(env.State)
		if got.hash != h.Sum64() || got.bytes != int64(len(env.State))+envelopeOverheadBytes {
			t.Fatalf("digest %x/%d is not FNV-1a/size of state %q", got.hash, got.bytes, env.State)
		}
	})
}

// prevEntryInput is the input FuzzDecodeEntry ran before the current one
// (fuzz inputs run one at a time in each process).
var prevEntryInput []byte

// checkWarmScratchMatchesFresh decodes data into scratch entries that
// already hold another decode — the previous fuzz input's and data's own,
// with every bookkeeping field set the way a live entry sets it — and
// fails t unless scanEntryInto reports what it reports into a new entry and
// decodeEntryInto the error decodeEntry reports, and each scratch then
// equals the fresh decode field for field.
func checkWarmScratchMatchesFresh(t *testing.T, data []byte) {
	t.Helper()
	prev := prevEntryInput
	prevEntryInput = bytes.Clone(data)
	warm := func(from []byte) *entry {
		var e entry
		decodeEntryInto(&e, from) // a failed decode leaves a scratch as warm
		e.stale, e.staleSince, e.sharedReg, e.rawDigest = true, 7, true, true
		e.storeKey = "cache/warm"
		return &e
	}
	fresh := &entry{}
	freshOK := scanEntryInto(fresh, data)
	want, wantErr := decodeEntry(data)
	for _, from := range [][]byte{prev, data} {
		e := warm(from)
		if ok := scanEntryInto(e, data); ok != freshOK {
			t.Fatalf("scan of %q into a scratch warm with %q = %v, fresh %v", data, from, ok, freshOK)
		} else if ok && !reflect.DeepEqual(e, fresh) {
			t.Fatalf("scan of %q into a scratch warm with %q = %+v, fresh %+v", data, from, e, fresh)
		}
		e = warm(from)
		err := decodeEntryInto(e, data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode of %q into a scratch warm with %q: err %v, fresh err %v", data, from, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(e, want) {
			t.Fatalf("decode of %q into a scratch warm with %q = %+v, fresh %+v", data, from, e, want)
		}
	}
}
