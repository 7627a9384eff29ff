package faas

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/queue"
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
		got := EncodeSQSEvent(msgs)
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
		f.Add(EncodeSQSEvent(msgs))
	}
	f.Add([]byte(`{"records":[]}{"messageId":"m","receiptHandle":"r","body":"b"}]}`))
	f.Add([]byte(`{"records":[{"messageId":"m","receiptHandle":"r","body":"A\/"}]}`))
	f.Add([]byte(`{"records":[{"messageId":"m","receiptHandle":"r","body":"b"}] }`))
	f.Add([]byte("{\"records\":[{\"messageId\":\"\xff\",\"receiptHandle\":\"r\",\"body\":\"b\"}]}"))
	f.Add([]byte(`{"records":null}`))
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
