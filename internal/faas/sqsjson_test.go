package faas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/pricing"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// rangeBodies ranges over SQSBodies(payload), copying each body, and
// returns the bodies and the first error. It fails the test if an error
// follows a body or is not the last value yielded.
func rangeBodies(t testing.TB, payload []byte) ([]string, error) {
	t.Helper()
	var bodies []string
	var err error
	for body, e := range SQSBodies(payload) {
		if err != nil {
			t.Fatalf("SQSBodies yielded %q after the error %v", body, err)
		}
		if e != nil {
			if body != nil || len(bodies) > 0 {
				t.Fatalf("SQSBodies yielded error %v with body %q after %d bodies", e, body, len(bodies))
			}
			err = e
			continue
		}
		bodies = append(bodies, string(body))
	}
	return bodies, err
}

// jsonBodies is the reference decoder: encoding/json's record bodies.
func jsonBodies(payload []byte) ([]string, error) {
	var ev SQSEvent
	if err := json.Unmarshal(payload, &ev); err != nil {
		return nil, err
	}
	var bodies []string
	for _, r := range ev.Records {
		bodies = append(bodies, r.Body)
	}
	return bodies, nil
}

// TestSQSEventCodecMatchesEncodingJSON pins the fast codec's contract: for
// every input — fast path or fallback — the encoded payload must be
// byte-identical to encoding/json's output (payload length feeds metering
// and fabric transfer sizes), and decoding must invert it exactly.
func TestSQSEventCodecMatchesEncodingJSON(t *testing.T) {
	cases := [][]queue.Message{
		{},
		{{ID: "q-1", Receipt: "rcpt-q-1", Body: []byte("hello")}},
		{
			{ID: "q-1", Receipt: "rcpt-q-1", Body: []byte(`{"seq":1,"sent":42}`)},
			{ID: "q-2", Receipt: "rcpt-q-2", Body: []byte(`quote " and slash \ inside`)},
		},
		// Fallback territory: HTML-escaped characters, control bytes,
		// non-ASCII.
		{{ID: "a<b>c&d", Receipt: "r", Body: []byte("x")}},
		{{ID: "q", Receipt: "r", Body: []byte("line\nbreak\ttab")}},
		{{ID: "q", Receipt: "r", Body: []byte("ünïcode ☃")}},
		{{ID: "", Receipt: "", Body: nil}},
	}
	for i, msgs := range cases {
		got := AppendSQSEvent(nil, msgs)
		ev := SQSEvent{Records: make([]SQSRecord, len(msgs))}
		for j, m := range msgs {
			ev.Records[j] = SQSRecord{MessageID: m.ID, Receipt: m.Receipt, Body: string(m.Body)}
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("case %d: encoded\n %s\nwant\n %s", i, got, want)
		}
		bodies, err := rangeBodies(t, got)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(bodies) != len(msgs) {
			t.Fatalf("case %d: decoded %d bodies, want %d", i, len(bodies), len(msgs))
		}
		for j, b := range bodies {
			if b != string(msgs[j].Body) {
				t.Errorf("case %d record %d: body %q, want %q", i, j, b, msgs[j].Body)
			}
		}
	}
}

// TestSQSBodiesForeignLayout verifies the strict fast parser defers to
// encoding/json on layouts it did not produce, and that a malformed
// payload yields one error and no body.
func TestSQSBodiesForeignLayout(t *testing.T) {
	payload := []byte(` { "records" : [ { "body" : "b" , "messageId" : "m" , "receiptHandle" : "r" } ] } `)
	bodies, err := rangeBodies(t, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(bodies, []string{"b"}) {
		t.Errorf("foreign layout decoded to %q", bodies)
	}
	if _, err := rangeBodies(t, []byte(`{"records":`)); err == nil {
		t.Error("truncated payload decoded without error")
	}
}

// FuzzSQSBodies is the decoder's differential oracle: on any payload,
// ranging over SQSBodies of a copy and encoding/json on the original must
// both fail, or both succeed with equal bodies. A second range over the
// same copy must then fail or give the same bodies again, never different
// ones. The seeds are the encoder's own output for the codec cases above
// (quote and backslash escapes take the in-place unescape path), layouts
// only the fallback accepts, and a batch that leaves the fast layout only
// in its third record.
func FuzzSQSBodies(f *testing.F) {
	for _, msgs := range [][]queue.Message{
		{},
		{{ID: "q-1", Receipt: "rcpt-q-1", Body: []byte("hello")}},
		{
			{ID: "q-1", Receipt: "rcpt-q-1", Body: []byte(`{"seq":1,"sent":42}`)},
			{ID: "q-2", Receipt: "rcpt-q-2", Body: []byte(`quote " and slash \ inside`)},
		},
		{{ID: `i"d`, Receipt: `r\\`, Body: []byte(`\"\\"`)}},
		{{ID: "a<b>c&d", Receipt: "r", Body: []byte("x")}},
		{{ID: "q", Receipt: "r", Body: []byte("line\nbreak\ttab")}},
		{{ID: "q", Receipt: "r", Body: []byte("ünïcode ☃")}},
		{{ID: "", Receipt: "", Body: nil}},
	} {
		f.Add(AppendSQSEvent(nil, msgs))
	}
	f.Add([]byte(`{"records":[]}{"messageId":"m","receiptHandle":"r","body":"b"}]}`))
	f.Add([]byte(`{"records":[{"messageId":"m","receiptHandle":"r","body":"A\/"}]}`))
	f.Add([]byte(`{"records":[{"messageId":"m","receiptHandle":"r","body":"b"}] }`))
	f.Add([]byte("{\"records\":[{\"messageId\":\"\xff\",\"receiptHandle\":\"r\",\"body\":\"b\"}]}"))
	f.Add([]byte(`{"records":null}`))
	// Multi-record batches whose bodies carry escapes, the faasscale shape.
	for _, msgs := range [][]queue.Message{
		escapedBatch(3),
		escapedBatch(queue.MaxBatch),
		{
			{ID: "q-1", Receipt: "rcpt-q-1", Body: []byte(`\`)},
			{ID: `q"2`, Receipt: `r\2`, Body: []byte(`"`)},
			{ID: "q-3", Receipt: "rcpt-q-3", Body: nil},
		},
	} {
		f.Add(AppendSQSEvent(nil, msgs))
	}
	f.Add(offLayoutThirdRecord())
	f.Add(AppendSQSEvent(nil, twiceValidBatch))
	// One byte off the fast layout each: an escape the encoder never
	// writes, a byte after the closing brace, and no opening brace.
	f.Add([]byte(`{"records":[{"messageId":"m","receiptHandle":"r","body":"a\nb"}]}`))
	f.Add([]byte(`{"records":[{"messageId":"m","receiptHandle":"r","body":"b"}]}x`))
	f.Add([]byte(`["records":[{"messageId":"m","receiptHandle":"r","body":"b"}]}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		buf := bytes.Clone(payload)
		got, gotErr := rangeBodies(t, buf)
		want, wantErr := jsonBodies(payload)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("SQSBodies err %v, encoding/json err %v", gotErr, wantErr)
		}
		if gotErr == nil && !slices.Equal(got, want) {
			t.Fatalf("SQSBodies = %q, encoding/json = %q", got, want)
		}
		if again, err := rangeBodies(t, buf); err == nil && !slices.Equal(again, got) {
			t.Fatalf("a second range gave %q, the first %q", again, got)
		}
	})
}

// escapedBatch returns n messages whose bodies, like faasscale's JSON
// bodies, carry quote escapes, one with a backslash as well.
func escapedBatch(n int) []queue.Message {
	msgs := make([]queue.Message, n)
	for i := range msgs {
		msgs[i] = queue.Message{
			ID:      fmt.Sprintf("faasscale-in-%d", i+1),
			Receipt: fmt.Sprintf("rcpt-faasscale-in-%d", i+1),
			Body:    fmt.Appendf(nil, `{"seq":%d,"sent":%d,"path":"a\\b"}`, i, 1_000_000*i),
		}
	}
	return msgs
}

// offLayoutThirdRecord is a three-record payload whose first two records
// are in the fast layout with escaped bodies and whose third has a space
// before its body: it must decode entirely through encoding/json.
func offLayoutThirdRecord() []byte {
	p := AppendSQSEvent(nil, escapedBatch(3))
	at := bytes.LastIndex(p, []byte(`,"body":`)) + len(`,"body":`)
	return slices.Insert(p, at, ' ')
}

// TestSQSBodiesFallbackSeesOriginalBytes: when the third record is off
// the fast layout, every body, the first two included, comes from
// encoding/json on the payload as it was sent. Had the fast path unescaped
// the first two bodies before finding the third, encoding/json would read
// them unescaped once too often.
func TestSQSBodiesFallbackSeesOriginalBytes(t *testing.T) {
	payload := offLayoutThirdRecord()
	orig := bytes.Clone(payload)
	got, err := rangeBodies(t, payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := jsonBodies(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) || len(got) != 3 {
		t.Errorf("bodies %q, want encoding/json's %q", got, want)
	}
	for i, m := range escapedBatch(3) {
		if got[i] != string(m.Body) {
			t.Errorf("body %d = %q, want %q", i, got[i], m.Body)
		}
	}
	if !bytes.Equal(payload, orig) {
		t.Error("the fallback path wrote to the payload")
	}
}

// TestSQSBodiesSecondRangeErrors: ranging a fast-layout payload consumes
// it, whether the first range ran to the end or stopped after one body, so
// a second range yields an error instead of bodies unescaped twice. The
// body x\" is the case that needs the guard: unescaped in place it leaves
// x\"\" before its closing quote, which reads again as the valid x"".
func TestSQSBodiesSecondRangeErrors(t *testing.T) {
	for _, msgs := range [][]queue.Message{escapedBatch(4), twiceValidBatch} {
		for _, stopEarly := range []bool{false, true} {
			payload := AppendSQSEvent(nil, msgs)
			for range SQSBodies(payload) {
				if stopEarly {
					break
				}
			}
			if bodies, err := rangeBodies(t, payload); err == nil {
				t.Errorf("stopEarly=%v: a second range gave %q and no error", stopEarly, bodies)
			}
		}
	}
}

// twiceValidBatch's first body is x\", which stays in the fast layout
// after being unescaped in place (see TestSQSBodiesSecondRangeErrors).
var twiceValidBatch = []queue.Message{
	{ID: "q-1", Receipt: "r-1", Body: []byte(`x\"`)},
	{ID: "q-2", Receipt: "r-2", Body: []byte("plain")},
}

// TestSQSBodiesAreBoundedSubslices: each body is a subslice of the payload
// whose capacity ends with it, so a handler that appends to one body
// cannot overwrite the records after it.
func TestSQSBodiesAreBoundedSubslices(t *testing.T) {
	msgs := escapedBatch(3)
	payload := AppendSQSEvent(nil, msgs)
	i := 0
	for body, err := range SQSBodies(payload) {
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != string(msgs[i].Body) {
			t.Fatalf("body %d = %q, want %q", i, body, msgs[i].Body)
		}
		if cap(body) != len(body) {
			t.Errorf("body %d has capacity %d past its length %d", i, cap(body), len(body))
		}
		_ = append(body, "clobber"...)
		i++
	}
	if i != len(msgs) {
		t.Errorf("yielded %d bodies, want %d", i, len(msgs))
	}
}

// TestSQSBodiesAllocationFree: a warm 10-record batch whose bodies all
// carry escapes decodes without allocating.
func TestSQSBodiesAllocationFree(t *testing.T) {
	payload := AppendSQSEvent(nil, escapedBatch(queue.MaxBatch))
	buf := make([]byte, len(payload))
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		copy(buf, payload)
		for body, err := range SQSBodies(buf) {
			if err != nil {
				t.Fatal(err)
			}
			n += len(body)
		}
	})
	if allocs != 0 {
		t.Errorf("SQSBodies allocated %.1f times per 10-record batch, want 0", allocs)
	}
	if n == 0 {
		t.Error("no body bytes seen")
	}
}

// TestEventSourceReusesPayloadBuffer: a handler that copies its bodies
// and keeps them across batches must find them intact while the poller
// encodes later batches into the same payload buffer, and the poller must
// in fact reuse it.
func TestEventSourceReusesPayloadBuffer(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	qsvc := queue.NewService("sqs", f.net, 9, simrand.New(41), pricing.Fall2018(), f.meter)
	q := qsvc.CreateQueue("in", 2*time.Minute)
	const n = 30
	var kept []string
	buffers := make(map[*byte]int) // payload backing array -> batches it carried
	f.pf.Register(Function{Name: "keep", MemoryMB: 256, Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
		buffers[&payload[0]]++
		for body, err := range SQSBodies(payload) {
			if err != nil {
				return nil, err
			}
			kept = append(kept, string(body))
		}
		return nil, nil
	}})
	esm := f.pf.MapQueue(q, "keep", 3)
	var want []string
	f.k.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			body := fmt.Sprintf(`{"job":%d,"note":"say \"%s\""}`, i, strings.Repeat("x", i))
			if _, err := q.Send(p, f.caller, []byte(body)); err != nil {
				t.Errorf("Send: %v", err)
			}
			want = append(want, body)
			p.Sleep(time.Second)
		}
		p.Sleep(time.Minute)
		esm.Stop()
	})
	f.k.RunUntil(5 * time.Minute)
	slices.Sort(kept)
	slices.Sort(want)
	if !slices.Equal(kept, want) {
		t.Errorf("kept bodies\n %q\nwant\n %q", kept, want)
	}
	reused := false
	for _, batches := range buffers {
		reused = reused || batches > 1
	}
	if !reused {
		t.Errorf("the poller used a new payload buffer for each of %d batches", len(buffers))
	}
}

// BenchmarkSQSBodies decodes a full 10-record batch whose bodies all
// carry escapes, copying the encoded batch into a warm buffer first (a
// range consumes its payload). It allocates nothing.
func BenchmarkSQSBodies(b *testing.B) {
	payload := AppendSQSEvent(nil, escapedBatch(queue.MaxBatch))
	buf := make([]byte, len(payload))
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		copy(buf, payload)
		for _, err := range SQSBodies(buf) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
