package faas

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/pricing"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/simrand"
)

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
		dec, err := DecodeSQSEvent(got)
		if err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if len(dec.Records) != len(msgs) {
			t.Fatalf("case %d: decoded %d records, want %d", i, len(dec.Records), len(msgs))
		}
		for j, r := range dec.Records {
			m := msgs[j]
			if r.MessageID != m.ID || r.Receipt != m.Receipt || r.Body != string(m.Body) {
				t.Errorf("case %d record %d: round trip %+v != %+v", i, j, r, m)
			}
		}
	}
}

// TestDecodeSQSEventForeignLayout verifies the strict fast parser defers
// to encoding/json on layouts it did not produce.
func TestDecodeSQSEventForeignLayout(t *testing.T) {
	payload := []byte(` { "records" : [ { "body" : "b" , "messageId" : "m" , "receiptHandle" : "r" } ] } `)
	ev, err := DecodeSQSEvent(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Records) != 1 || ev.Records[0].MessageID != "m" ||
		ev.Records[0].Receipt != "r" || ev.Records[0].Body != "b" {
		t.Errorf("foreign layout decoded to %+v", ev.Records)
	}
	if _, err := DecodeSQSEvent([]byte(`{"records":`)); err == nil {
		t.Error("truncated payload decoded without error")
	}
}

// FuzzDecodeSQSEvent is the decoder's differential oracle: on any payload,
// DecodeSQSEvent and encoding/json must both fail, or both succeed with
// equal records. The seeds are the encoder's own output for the codec
// cases above (quote and backslash escapes take the single-copy unescape
// path) plus layouts only the fallback accepts.
func FuzzDecodeSQSEvent(f *testing.F) {
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
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, gotErr := DecodeSQSEvent(payload)
		var want SQSEvent
		wantErr := json.Unmarshal(payload, &want)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("DecodeSQSEvent err %v, encoding/json err %v", gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeSQSEvent = %+v, encoding/json = %+v", got, want)
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

// TestDecodedEventOutlivesPayload: DecodeSQSEvent's records must not
// alias the payload, so overwriting the payload buffer — what a poller
// does with the next batch — leaves every decoded field unchanged, on the
// fast path and the encoding/json fallback alike.
func TestDecodedEventOutlivesPayload(t *testing.T) {
	for _, msgs := range [][]queue.Message{
		escapedBatch(queue.MaxBatch),
		{{ID: "q-1", Receipt: "r-1", Body: []byte("plain")}, {ID: "q-2", Receipt: "r-2", Body: []byte("ünïcode")}},
	} {
		payload := AppendSQSEvent(nil, msgs)
		ev, err := DecodeSQSEvent(payload)
		if err != nil {
			t.Fatal(err)
		}
		for i := range payload {
			payload[i] = 'X'
		}
		for i, r := range ev.Records {
			m := msgs[i]
			if r.MessageID != m.ID || r.Receipt != m.Receipt || r.Body != string(m.Body) {
				t.Errorf("record %d changed with its payload: %+v, want %s %s %s", i, r, m.ID, m.Receipt, m.Body)
			}
		}
	}
}

// TestEventSourceReusesPayloadBuffer: a handler that keeps its decoded
// records across batches must find them intact while the poller encodes
// later batches into the same payload buffer, and the poller must in fact
// reuse it.
func TestEventSourceReusesPayloadBuffer(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	qsvc := queue.NewService("sqs", f.net, 9, simrand.New(41), queue.DefaultConfig(),
		pricing.Fall2018(), f.meter)
	q := qsvc.CreateQueue("in", 2*time.Minute)
	const n = 30
	var kept []SQSRecord
	buffers := make(map[*byte]int) // payload backing array -> batches it carried
	f.pf.Register(Function{Name: "keep", MemoryMB: 256, Handler: func(ctx *Ctx, payload []byte) ([]byte, error) {
		ev, err := DecodeSQSEvent(payload)
		if err != nil {
			return nil, err
		}
		buffers[&payload[0]]++
		kept = append(kept, ev.Records...)
		return nil, nil
	}})
	esm := f.pf.MapQueue(q, "keep", 3)
	want := make(map[string]string) // message ID -> body
	f.k.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			body := fmt.Sprintf(`{"job":%d,"note":"say \"%s\""}`, i, strings.Repeat("x", i))
			id, err := q.Send(p, f.caller, []byte(body))
			if err != nil {
				t.Errorf("Send: %v", err)
			}
			want[id] = body
			p.Sleep(time.Second)
		}
		p.Sleep(time.Minute)
		esm.Stop()
	})
	f.k.RunUntil(5 * time.Minute)
	if len(kept) != n {
		t.Fatalf("kept %d records, want %d", len(kept), n)
	}
	for _, r := range kept {
		if body, ok := want[r.MessageID]; !ok || r.Body != body || !strings.HasPrefix(r.Receipt, "rcpt-in-") {
			t.Errorf("kept record %+v corrupted; want body %q", r, body)
		}
	}
	reused := false
	for _, batches := range buffers {
		reused = reused || batches > 1
	}
	if !reused {
		t.Errorf("the poller used a new payload buffer for each of %d batches", len(buffers))
	}
}

// TestDecodeSQSEventStringFitsFields: the fast decoder's one string is
// sized to the payload's field bytes, not to the whole payload. Over many
// decodes of a 10-record batch with escaped bodies, the allocated bytes
// (TotalAlloc delta) must stay within the records plus the escaped field
// bytes, with an eighth for size-class rounding. Growing the string to the
// whole payload length allocates about a quarter more and fails it.
func TestDecodeSQSEventStringFitsFields(t *testing.T) {
	const decodes = 1000
	msgs := escapedBatch(queue.MaxBatch)
	payload := AppendSQSEvent(nil, msgs)
	escaped := func(s string) int { return len(s) + strings.Count(s, `"`) + strings.Count(s, `\`) }
	fields := 0
	for _, m := range msgs {
		fields += escaped(m.ID) + escaped(m.Receipt) + escaped(string(m.Body))
	}
	records := len(msgs) * int(reflect.TypeFor[SQSRecord]().Size())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range decodes {
		if _, err := DecodeSQSEvent(payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	if limit := uint64(decodes * float64(records+fields) * 1.125); got > limit {
		t.Errorf("%d decodes of a %d B payload (%d B of fields) allocated %d B, want at most %d",
			decodes, len(payload), fields, got, limit)
	}
}

// BenchmarkDecodeSQSEvent decodes a full 10-record batch whose bodies all
// carry escapes: the records and one builder holding every field are the
// only allocations.
func BenchmarkDecodeSQSEvent(b *testing.B) {
	payload := AppendSQSEvent(nil, escapedBatch(queue.MaxBatch))
	b.ReportAllocs()
	b.SetBytes(int64(len(payload)))
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSQSEvent(payload); err != nil {
			b.Fatal(err)
		}
	}
}
