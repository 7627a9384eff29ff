package faas

// Hand-rolled SQS-event codec. Every queue-triggered invocation encodes a
// batch on the poller side and decodes it inside the handler, so on
// serving-tier workloads the reflective encoding/json round trip was a
// double-digit slice of real time. The fast paths below emit and parse
// byte-identical JSON for the overwhelmingly common case — printable-ASCII
// strings with at worst quote/backslash escapes — and defer to
// encoding/json verbatim for anything else (control characters, the
// HTML-escaped <, >, &, non-ASCII, unexpected layout), so the payload
// bytes (and therefore every metered size and golden trace) are identical
// by construction. The fast decoder copies the payload once: each decoded
// field is a substring of that one string, except a field with escapes,
// which gets a single exactly-sized copy of its own.

import (
	"encoding/json"
	"strings"

	"repro/internal/queue"
)

// fastEncodable reports whether encoding/json would emit s with at most
// \" and \\ escapes: printable ASCII, no HTML-escaped characters. Generic
// over string and []byte so message bodies are checked without a copying
// conversion.
func fastEncodable[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c > 0x7e || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// appendQuoted appends s as a JSON string literal with quote/backslash
// escaping (the only escapes fastEncodable admits).
func appendQuoted[T string | []byte](b []byte, s T) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '"' || c == '\\' {
			b = append(b, '\\')
		}
		b = append(b, c)
	}
	return append(b, '"')
}

// EncodeSQSEvent serializes messages into an invocation payload.
func EncodeSQSEvent(msgs []queue.Message) []byte {
	for _, m := range msgs {
		if !fastEncodable(m.ID) || !fastEncodable(m.Receipt) || !fastEncodable(m.Body) {
			return encodeSQSEventSlow(msgs)
		}
	}
	size := len(`{"records":[]}`)
	for _, m := range msgs {
		size += len(`{"messageId":"","receiptHandle":"","body":""},`) +
			len(m.ID) + len(m.Receipt) + len(m.Body) + 8
	}
	b := make([]byte, 0, size)
	b = append(b, `{"records":[`...)
	for i, m := range msgs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"messageId":`...)
		b = appendQuoted(b, m.ID)
		b = append(b, `,"receiptHandle":`...)
		b = appendQuoted(b, m.Receipt)
		b = append(b, `,"body":`...)
		b = appendQuoted(b, m.Body)
		b = append(b, '}')
	}
	return append(b, ']', '}')
}

func encodeSQSEventSlow(msgs []queue.Message) []byte {
	ev := SQSEvent{Records: make([]SQSRecord, len(msgs))}
	for i, m := range msgs {
		ev.Records[i] = SQSRecord{MessageID: m.ID, Receipt: m.Receipt, Body: string(m.Body)}
	}
	b, err := json.Marshal(ev)
	if err != nil {
		panic("faas: encoding SQS event: " + err.Error())
	}
	return b
}

// DecodeSQSEvent parses an invocation payload back into an event.
func DecodeSQSEvent(payload []byte) (SQSEvent, error) {
	if ev, ok := decodeSQSEventFast(payload); ok {
		return ev, nil
	}
	var ev SQSEvent
	err := json.Unmarshal(payload, &ev)
	return ev, err
}

// decodeSQSEventFast parses exactly the layout EncodeSQSEvent's fast path
// emits. Any deviation — stray whitespace, reordered fields, an escape
// other than \" or \\, a control or non-ASCII byte, trailing bytes —
// reports !ok and the caller falls back to encoding/json, so hand-built
// payloads still decode.
//
// The payload is copied into a string once; every field without escapes
// is a substring of that copy, and a field with escapes is unescaped into
// one exactly-sized string.
func decodeSQSEventFast(payload []byte) (SQSEvent, bool) {
	var ev SQSEvent
	p := string(payload)
	i, n := 0, len(p)
	eat := func(lit string) bool {
		if !strings.HasPrefix(p[i:], lit) {
			return false
		}
		i += len(lit)
		return true
	}
	str := func() (string, bool) {
		if i >= n || p[i] != '"' {
			return "", false
		}
		i++
		start, escapes := i, 0
		for i < n {
			switch p[i] {
			case '"':
				raw := p[start:i]
				i++
				if escapes == 0 {
					return raw, true
				}
				return unescapeQuoted(raw, len(raw)-escapes), true
			case '\\':
				// Only the two escapes the fast encoder emits; anything
				// else falls back to encoding/json.
				if i+1 >= n || (p[i+1] != '"' && p[i+1] != '\\') {
					return "", false
				}
				escapes++
				i += 2
			default:
				// encoding/json rejects raw control bytes and rewrites
				// invalid UTF-8; leave both, and all non-ASCII, to it.
				if p[i] < 0x20 || p[i] >= 0x80 {
					return "", false
				}
				i++
			}
		}
		return "", false
	}
	if !eat(`{"records":[`) {
		return ev, false
	}
	if p[i:] == `]}` {
		ev.Records = []SQSRecord{}
		return ev, true
	}
	for {
		var r SQSRecord
		var ok bool
		if !eat(`{"messageId":`) {
			return ev, false
		}
		if r.MessageID, ok = str(); !ok {
			return ev, false
		}
		if !eat(`,"receiptHandle":`) {
			return ev, false
		}
		if r.Receipt, ok = str(); !ok {
			return ev, false
		}
		if !eat(`,"body":`) {
			return ev, false
		}
		if r.Body, ok = str(); !ok {
			return ev, false
		}
		if !eat(`}`) {
			return ev, false
		}
		ev.Records = append(ev.Records, r)
		if eat(`,`) {
			continue
		}
		if eat(`]}`) && i == n {
			return ev, true
		}
		return ev, false
	}
}

// unescapeQuoted drops the backslash of every \" and \\ escape in raw, a
// string literal's contents that holds only those escapes, into a string of
// the given (already counted) length.
func unescapeQuoted(raw string, size int) string {
	var sb strings.Builder
	sb.Grow(size)
	for j := 0; j < len(raw); j++ {
		if raw[j] == '\\' {
			j++
		}
		sb.WriteByte(raw[j])
	}
	return sb.String()
}
