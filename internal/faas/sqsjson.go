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
// by construction. The encoder appends into a caller-owned buffer, so a
// poller reuses one payload buffer across batches; the fast decoder
// unescapes every field into one string and allocates the records once,
// and never aliases the payload.

import (
	"bytes"
	"encoding/json"
	"slices"
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

// AppendSQSEvent appends messages' invocation payload to dst and returns
// the extended buffer. A caller that reuses one buffer across batches
// (dst[:0]) allocates only when a batch outgrows it.
func AppendSQSEvent(dst []byte, msgs []queue.Message) []byte {
	for _, m := range msgs {
		if !fastEncodable(m.ID) || !fastEncodable(m.Receipt) || !fastEncodable(m.Body) {
			return append(dst, encodeSQSEventSlow(msgs)...)
		}
	}
	size := len(`{"records":[]}`)
	for _, m := range msgs {
		size += len(`{"messageId":"","receiptHandle":"","body":""},`) +
			len(m.ID) + len(m.Receipt) + len(m.Body) + 8
	}
	b := slices.Grow(dst, size)
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

// DecodeSQSEvent parses an invocation payload back into an event. The
// event never aliases payload, so it stays intact after the payload's
// buffer is reused.
func DecodeSQSEvent(payload []byte) (SQSEvent, error) {
	if ev, ok := decodeSQSEventFast(payload); ok {
		return ev, nil
	}
	var ev SQSEvent
	err := json.Unmarshal(payload, &ev)
	return ev, err
}

// recordStart opens every record in the layout AppendSQSEvent's fast path
// emits. Inside a string every quote is escaped, so in a well-formed
// payload each occurrence opens a record.
const recordStart = `{"messageId":`

// sqsEventFraming is the length of the fast layout of k records with
// every field empty: all of a payload that is not field bytes.
func sqsEventFraming(k int) int {
	const record = len(recordStart + `"","receiptHandle":"","body":""}`)
	return len(`{"records":[]}`) + k*record + max(0, k-1)
}

// decodeSQSEventFast parses exactly the layout AppendSQSEvent's fast path
// emits. Any deviation — stray whitespace, reordered fields, an escape
// other than \" or \\, a control or non-ASCII byte, trailing bytes —
// reports !ok and the caller falls back to encoding/json, so hand-built
// payloads still decode.
//
// It allocates twice: the records, at the length counted up front, and
// one string builder that every field is unescaped into, sized to the
// payload less its framing (an upper bound on the field bytes, since an
// escape only shrinks). Each field is a substring of the builder's
// contents, which only grow, so earlier fields stay valid as later ones
// are written.
func decodeSQSEventFast(p []byte) (SQSEvent, bool) {
	var ev SQSEvent
	i, n := 0, len(p)
	eat := func(lit string) bool {
		if n-i < len(lit) || string(p[i:i+len(lit)]) != lit {
			return false
		}
		i += len(lit)
		return true
	}
	var sb strings.Builder
	str := func() (string, bool) {
		if i >= n || p[i] != '"' {
			return "", false
		}
		i++
		start, run := sb.Len(), i
		for i < n {
			switch c := p[i]; {
			case c == '"':
				sb.Write(p[run:i])
				i++
				return sb.String()[start:], true
			case c == '\\':
				// Only the two escapes the fast encoder emits; anything
				// else falls back to encoding/json.
				if i+1 >= n || (p[i+1] != '"' && p[i+1] != '\\') {
					return "", false
				}
				sb.Write(p[run:i])
				run = i + 1 // the escaped byte starts the next run
				i += 2
			case c < 0x20 || c >= 0x80:
				// encoding/json rejects raw control bytes and rewrites
				// invalid UTF-8; leave both, and all non-ASCII, to it.
				return "", false
			default:
				i++
			}
		}
		return "", false
	}
	if !eat(`{"records":[`) {
		return ev, false
	}
	if string(p[i:]) == `]}` {
		ev.Records = []SQSRecord{}
		return ev, true
	}
	ev.Records = make([]SQSRecord, bytes.Count(p[i:], []byte(recordStart)))
	sb.Grow(max(0, n-sqsEventFraming(len(ev.Records))))
	for k := range ev.Records {
		r := &ev.Records[k]
		var ok bool
		if !eat(recordStart) {
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
		if k < len(ev.Records)-1 && !eat(`,`) {
			return ev, false
		}
	}
	return ev, len(ev.Records) > 0 && eat(`]}`) && i == n
}
