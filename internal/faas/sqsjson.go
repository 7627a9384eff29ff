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
// unescapes each record body in place and hands it out as a subslice of
// the payload, so a batch decodes without allocating.

import (
	"encoding/json"
	"errors"
	"iter"
	"slices"

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

// SQSBodies returns an iterator over the record bodies of an SQS-event
// payload, in record order. Each body is a subslice of payload (its
// capacity ends with it), valid while the payload's buffer is, which for a
// handler means until it returns.
//
// A payload in exactly the layout AppendSQSEvent's fast path emits is read
// twice. The first pass validates all of it without writing. The second
// unescapes each body in place, where \" and \\ only shrink so the write
// cursor never passes the read cursor, and yields it. Any other payload goes
// to encoding/json, which sees the original bytes because nothing is
// written until the whole payload has validated; an error is yielded once,
// as (nil, err), before any body.
//
// Ranging a fast-layout payload consumes it: the second pass first
// overwrites its opening brace, so ranging the same payload again yields
// an error rather than bodies unescaped twice. (encoding/json never writes
// to the payload it is given.)
func SQSBodies(payload []byte) iter.Seq2[[]byte, error] {
	return func(yield func([]byte, error) bool) { sqsBodies(payload, yield) }
}

// consumedMark replaces a fast-path payload's opening brace once SQSBodies
// starts rewriting it. No JSON value starts with it, so a second range
// reaches encoding/json and fails.
const consumedMark = 0

var errSQSChanged = errors.New("faas: SQS payload changed while being ranged over")

func sqsBodies(p []byte, yield func([]byte, error) bool) {
	if len(p) == 0 || p[0] != '{' || !walkSQSEvent(p, nil) {
		var ev SQSEvent
		if err := json.Unmarshal(p, &ev); err != nil {
			yield(nil, err)
			return
		}
		for _, r := range ev.Records {
			if !yield([]byte(r.Body), nil) {
				return
			}
		}
		return
	}
	p[0] = consumedMark
	if !walkSQSEvent(p, yield) {
		// Only a write to the payload while it is ranged over gets here.
		yield(nil, errSQSChanged)
	}
}

// walkSQSEvent reports whether p is exactly in the layout AppendSQSEvent's
// fast path emits. Any deviation — stray whitespace, reordered fields, an
// escape other than \" or \\, a control or non-ASCII byte, trailing bytes —
// reports false, and the caller falls back to encoding/json, so hand-built
// payloads still decode. The opening brace is not read: the caller checks
// it, and the second pass walks a payload whose brace it has overwritten.
//
// With a nil yield the walk only reads p. Otherwise it unescapes each body
// in place and yields it; if yield returns false the walk stops and reports
// true.
func walkSQSEvent(p []byte, yield func([]byte, error) bool) bool {
	i, n := 1, len(p)
	eat := func(lit string) bool {
		if n-i < len(lit) || string(p[i:i+len(lit)]) != lit {
			return false
		}
		i += len(lit)
		return true
	}
	// str walks one string literal and returns its contents, unescaped in
	// place when unescape is set: w trails i by the escapes seen so far.
	str := func(unescape bool) ([]byte, bool) {
		if i >= n || p[i] != '"' {
			return nil, false
		}
		i++
		start, w := i, i
		for i < n {
			c := p[i]
			switch {
			case c == '"':
				i++
				return p[start:w:w], true
			case c == '\\':
				// Only the two escapes the fast encoder emits; anything
				// else falls back to encoding/json.
				if i+1 >= n || (p[i+1] != '"' && p[i+1] != '\\') {
					return nil, false
				}
				c = p[i+1]
				i++
			case c < 0x20 || c >= 0x80:
				// encoding/json rejects raw control bytes and rewrites
				// invalid UTF-8; leave both, and all non-ASCII, to it.
				return nil, false
			}
			if unescape {
				p[w] = c
			}
			i++
			w++
		}
		return nil, false
	}
	if !eat(`"records":[`) {
		return false
	}
	if string(p[i:]) == `]}` {
		return true
	}
	for {
		if !eat(`{"messageId":`) {
			return false
		}
		if _, ok := str(false); !ok || !eat(`,"receiptHandle":`) {
			return false
		}
		if _, ok := str(false); !ok || !eat(`,"body":`) {
			return false
		}
		body, ok := str(yield != nil)
		if !ok || !eat(`}`) {
			return false
		}
		if yield != nil && !yield(body, nil) {
			return true
		}
		if !eat(`,`) {
			return eat(`]}`) && i == n
		}
	}
}
