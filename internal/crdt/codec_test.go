package crdt

import (
	"bytes"
	"encoding/json"
	"math"
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
		"gcounter/awkward":    &GCounter{Counts: counts},
		"gcounter/nil":        (*GCounter)(nil),
		"pncounter/nil P N":   &PNCounter{},
		"pncounter/nil maps":  &PNCounter{P: &GCounter{}, N: &GCounter{}},
		"pncounter/empty":     NewPNCounter(),
		"pncounter/awkward":   &PNCounter{P: &GCounter{Counts: counts}, N: &GCounter{Counts: map[string]int64{"a": 1}}},
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
		want, err := json.Marshal(v)
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
