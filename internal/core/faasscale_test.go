package core

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestFaaSScaleShape is the tentpole's acceptance gate: cold-start fraction
// and tail latency must fall as provisioned concurrency meets the flash
// crowds, the autoscaler must land near the one-time-cost point, and the
// whole run must be seed-deterministic.
func TestFaaSScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("faas-scale scenario in -short mode")
	}
	r0 := runFaaSScale(1, 0)
	r32 := runFaaSScale(1, 32)
	auto := runFaaSScale(1, -1)

	// The reaper guarantees every burst cold-starts an unprovisioned
	// fleet: a meaningful cold fraction, concentrated in the tail.
	if r0.coldFrac < 0.02 {
		t.Errorf("unprovisioned cold fraction = %.3f, want >= 0.02", r0.coldFrac)
	}
	if r32.coldFrac != 0 {
		t.Errorf("fully provisioned cold fraction = %.3f, want 0", r32.coldFrac)
	}
	if r32.p99 >= r0.p99 {
		t.Errorf("provisioned p99 %v not below unprovisioned p99 %v", r32.p99, r0.p99)
	}
	// The autoscaler pays the first burst cold, then serves warm: a
	// fraction well below the every-burst-cold baseline.
	if auto.coldFrac >= r0.coldFrac/2 {
		t.Errorf("autoscaled cold fraction = %.3f, want < half of %.3f", auto.coldFrac, r0.coldFrac)
	}
	if auto.scaleTarget <= 0 {
		t.Errorf("autoscaler final target = %d, want > 0", auto.scaleTarget)
	}
	// Provisioned capacity is not free: the bill must include keep-warm.
	if r32.costPerHr <= r0.costPerHr {
		t.Errorf("provisioned $/hr %.2f not above unprovisioned %.2f", r32.costPerHr, r0.costPerHr)
	}
	// The offered load drains inside the window at every level.
	for _, r := range []faasScaleResult{r0, r32, auto} {
		if r.submitted == 0 || r.completed != r.submitted {
			t.Errorf("%s: completed %d of %d submitted", r.provisioned, r.completed, r.submitted)
		}
	}

	if again := runFaaSScale(1, -1); again != auto {
		t.Errorf("faasscale is nondeterministic: %+v vs %+v", again, auto)
	}
}

// TestFaaSScaleTable checks the rendered artifact's shape.
func TestFaaSScaleTable(t *testing.T) {
	if testing.Short() {
		t.Skip("faas-scale scenario in -short mode")
	}
	tb := RunFaaSScale(1)[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 3 fixed levels + auto", len(tb.Rows))
	}
	if !strings.HasPrefix(tb.Rows[3][0], "auto") {
		t.Errorf("last row = %q, want the autoscaled sweep point", tb.Rows[3][0])
	}
	p99at0 := dur(t, tb, "p99@0")
	p99at32 := dur(t, tb, "p99@32")
	if p99at32 >= p99at0 {
		t.Errorf("p99 did not fall with provisioning: %v at 32 vs %v at 0", p99at32, p99at0)
	}
	if cold := metric(t, tb, "cold@32"); cold != 0 {
		t.Errorf("cold starts at 32 provisioned = %.2f%%, want 0%%", cold)
	}
}

// TestFaaSScaleMsgMatchesEncodingJSON pins the hand codec behind the
// faasscale message path: appendJSON must emit json.Marshal's bytes (the
// body length is metered and transferred), parseFaaSScaleMsg must invert
// it and reject every other form, and faasScaleKeys must hold fmt's
// zero-padded keys.
func TestFaaSScaleMsgMatchesEncodingJSON(t *testing.T) {
	msgs := []faasScaleMsg{
		{},
		{Seq: 1, Sent: 42},
		{Seq: -1, Sent: -1},
		{Seq: 7, Sent: math.MinInt64},
		{Seq: 7, Sent: math.MaxInt64},
		{Seq: math.MaxInt32 + 1, Sent: 180_000_000_000},
		{Seq: math.MaxInt, Sent: 0},
		{Seq: math.MinInt, Sent: 3},
	}
	for _, m := range msgs {
		want, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		got := m.appendJSON(nil)
		if string(got) != string(want) {
			t.Errorf("appendJSON(%+v) = %s, want %s", m, got, want)
		}
		back, err := parseFaaSScaleMsg(got)
		if err != nil || back != m {
			t.Errorf("parseFaaSScaleMsg(%s) = %+v, %v; want %+v", got, back, err, m)
		}
	}
	for _, body := range nonCanonicalFaaSScaleBodies {
		if m, err := parseFaaSScaleMsg([]byte(body)); err == nil {
			t.Errorf("parseFaaSScaleMsg(%s) = %+v, want an error for a non-canonical body", body, m)
		}
	}
	keys := faasScaleKeys()
	if len(keys) != faasScaleKeySpace {
		t.Fatalf("faasScaleKeys() has %d keys, want %d", len(keys), faasScaleKeySpace)
	}
	for n, got := range keys {
		if want := fmt.Sprintf("evt/%07d", n); got != want {
			t.Fatalf("faasScaleKeys()[%d] = %q, want %q", n, got, want)
		}
	}
}

// nonCanonicalFaaSScaleBodies are message bodies appendJSON never emits,
// some of which encoding/json would accept; parseFaaSScaleMsg rejects all.
var nonCanonicalFaaSScaleBodies = []string{
	`{"seq":007,"sent":1}`,
	`{"seq":-0,"sent":1}`,
	`{"seq":1,"sent":-0}`,
	`{"seq":+1,"sent":2}`,
	` {"seq":1,"sent":2}`,
	`{"seq": 1,"sent":2}`,
	`{"seq":1,"sent":2} `,
	`{"sent":2,"seq":1}`,
	`{"\u0073eq":1,"sent":2}`,
	`{"SEQ":1,"sent":2}`,
	`{"seq":1.0,"sent":2}`,
	`{"seq":1,"sent":9223372036854775808}`,
	`{"seq":1,"sent":2,"seq":3}`,
	`{"seq":1}`,
	`{"seq":-,"sent":2}`,
	`null`,
}

// FuzzParseFaaSScaleMsg checks the strict message decoder against
// encoding/json as the reference: every body parseFaaSScaleMsg accepts must
// decode to the same message under json.Unmarshal, and every body
// json.Unmarshal decodes whose canonical re-encoding is the body itself
// must be accepted. The seeds are canonical bodies and the non-canonical
// forms the decoder must reject.
func FuzzParseFaaSScaleMsg(f *testing.F) {
	for _, m := range []faasScaleMsg{{}, {Seq: 12, Sent: 345}, {Seq: -3, Sent: math.MinInt64}} {
		f.Add(string(m.appendJSON(nil)))
	}
	for _, s := range nonCanonicalFaaSScaleBodies {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		got, gotErr := parseFaaSScaleMsg([]byte(body))
		var want faasScaleMsg
		wantErr := json.Unmarshal([]byte(body), &want)
		if gotErr == nil && (wantErr != nil || got != want) {
			t.Fatalf("parseFaaSScaleMsg accepted %q as %+v; encoding/json gives %+v, %v", body, got, want, wantErr)
		}
		if gotErr != nil && wantErr == nil && string(want.appendJSON(nil)) == body {
			t.Fatalf("parseFaaSScaleMsg rejected canonical body %q: %v", body, gotErr)
		}
	})
}
