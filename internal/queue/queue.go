// Package queue simulates an SQS-style message queue service: named queues
// with SendMessage/ReceiveMessage/DeleteMessage, batches of at most ten
// messages, long polling, visibility timeouts with at-least-once redelivery,
// and per-request metering.
//
// SQS is the paper's "favored service for batching inputs" in the prediction
// serving case study, and the per-request price is what makes the 1M msg/s
// scenario cost $1,584/hr.
//
// The endpoint node, request round trip, and metering all live in the
// shared service layer (internal/service); this package owns only what is
// SQS-specific: queues, visibility timeouts, long polling, and redrive.
package queue

import (
	"errors"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// MaxBatch is the largest number of messages per send or receive request,
// matching SQS's limit of 10 (which the paper calls out as capping batching).
const MaxBatch = 10

// MaxMessageSize is the SQS payload limit.
const MaxMessageSize = 256 * 1024

// billingChunk is the payload size billed as one request (SQS bills each
// 64KB chunk of a payload as a separate request).
const billingChunk = 64 * 1024

// ErrTooLarge is returned for payloads above MaxMessageSize.
var ErrTooLarge = errors.New("queue: message exceeds 256KB limit")

// ErrBatchTooBig is returned when more than MaxBatch messages are batched.
var ErrBatchTooBig = errors.New("queue: batch exceeds 10 messages")

// Redrive policy configuration errors.
var (
	errSelfRedrive    = errors.New("queue: dead-letter queue cannot be the source queue")
	errBadMaxReceives = errors.New("queue: MaxReceives must be at least 1")
)

// Message is a received message. Receipt identifies this delivery for
// Delete; Attempts counts deliveries (1 on first receipt).
type Message struct {
	ID       string
	Body     []byte
	Receipt  string
	Attempts int
}

// Config holds service-level parameters.
type Config struct {
	// OpLatency is per-request service time, calibrated so that an EC2
	// client's send plus a long-polling server's response leg plus the
	// result send lands at the paper's 13 ms serving batch.
	OpLatency simrand.Dist

	// NICBps is the front end's aggregate network capacity.
	NICBps netsim.Bps
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		OpLatency: simrand.LogNormal{Median: 4000 * time.Microsecond, Sigma: 0.15},
		NICBps:    netsim.Gbps(400),
	}
}

// Service is a simulated SQS endpoint hosting any number of named queues.
type Service struct {
	fe     *service.Frontend
	cfg    Config
	queues map[string]*Queue
}

// NewService creates an SQS endpoint attached to the network.
func NewService(name string, net *netsim.Network, rack int, rng *simrand.RNG,
	cfg Config, catalog *pricing.Catalog, meter *pricing.Meter) *Service {
	return &Service{
		fe: service.NewFrontend(name, net, rack, rng, cfg.OpLatency,
			cfg.NICBps, catalog, meter),
		cfg:    cfg,
		queues: make(map[string]*Queue),
	}
}

// Node returns the service's network endpoint.
func (s *Service) Node() *netsim.Node { return s.fe.Node() }

// CreateQueue creates (or returns) the named queue with the given
// visibility timeout for received-but-undeleted messages.
func (s *Service) CreateQueue(name string, visibility time.Duration) *Queue {
	if q, ok := s.queues[name]; ok {
		return q
	}
	q := &Queue{
		svc:        s,
		name:       name,
		rcptPrefix: "rcpt-" + name,
		visibility: visibility,
		inflight:   make(map[string]*stored),
	}
	s.queues[name] = q
	return q
}

// Queue is one named message queue.
type Queue struct {
	svc        *Service
	name       string
	rcptPrefix string // "rcpt-" + name, the receipt handle's stem
	visibility time.Duration
	available  []*stored
	inflight   map[string]*stored // by receipt
	waiters    []*pollWaiter
	idle       []*pollWaiter // recycled long-poll wait state
	nextID     int64
	nextRcpt   int64

	redrive      *RedrivePolicy
	deadLettered int64
}

type stored struct {
	id       string
	body     []byte
	attempts int
	// receipt is the current delivery's handle, the in-flight map key.
	receipt string
	// vis is the message's visibility timer, created on its first receipt
	// and re-armed on every redelivery. It is active while the message is
	// in flight; Delete stops it, so acknowledged messages leave the
	// kernel queue immediately instead of firing a dead reappear event.
	vis *sim.Timer
}

// pollWaiter is one long poller's wait state: a latch the arrival path or
// the poll's deadline timer releases. Waiters are recycled through the
// queue's idle list, so a long poll allocates nothing in steady state; the
// deadline timer is bound to Release once and re-armed per poll.
type pollWaiter struct {
	sim.Latch
	timer *sim.Timer
}

// formatID renders prefix-n, the form of message IDs and receipt handles,
// with a single string allocation.
func formatID(prefix string, n int64) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = append(b, '-')
	return string(strconv.AppendInt(b, n, 10))
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Depth reports the number of immediately receivable messages.
func (q *Queue) Depth() int { return len(q.available) }

// InFlight reports the number of received-but-undeleted messages.
func (q *Queue) InFlight() int { return len(q.inflight) }

// billedRequests returns how many requests a payload of the given size
// bills: one per started 64KB chunk, with empty payloads still billing the
// one request every API call costs.
func billedRequests(payload int64) int64 {
	if payload <= billingChunk {
		return 1
	}
	return (payload + billingChunk - 1) / billingChunk
}

// request models one API request's round trip and charges for it,
// including SQS's 64KB-chunk billing for large payloads. The error is the
// front end's admission verdict (always nil without SetAdmission).
func (q *Queue) request(p *sim.Proc, caller *netsim.Node, payload int64) error {
	fe := q.svc.fe
	fe.Charge("sqs.request", billedRequests(payload), fe.Catalog().SQSPerRequest)
	return fe.RoundTripErr(p, caller, 0)
}

// Send enqueues one message and returns its ID.
func (q *Queue) Send(p *sim.Proc, caller *netsim.Node, body []byte) (string, error) {
	if err := q.admit(p, caller, body); err != nil {
		return "", err
	}
	id := q.enqueue(body)
	q.wakeWaiters(1)
	return id, nil
}

// SendBatch enqueues up to MaxBatch messages in one request.
func (q *Queue) SendBatch(p *sim.Proc, caller *netsim.Node, bodies [][]byte) ([]string, error) {
	if err := q.admit(p, caller, bodies...); err != nil {
		return nil, err
	}
	ids := make([]string, len(bodies))
	for i, b := range bodies {
		ids[i] = q.enqueue(b)
	}
	q.wakeWaiters(len(bodies))
	return ids, nil
}

// admit validates one send request — batch size first, then each body's
// size — and bills its round trip. Nothing is enqueued on error.
func (q *Queue) admit(p *sim.Proc, caller *netsim.Node, bodies ...[]byte) error {
	if len(bodies) > MaxBatch {
		return ErrBatchTooBig
	}
	var payload int64
	for _, b := range bodies {
		if len(b) > MaxMessageSize {
			return ErrTooLarge
		}
		payload += int64(len(b))
	}
	return q.request(p, caller, payload)
}

// enqueue stores a copy of body as a new receivable message and returns its
// ID. The caller wakes long pollers once the whole request is enqueued.
func (q *Queue) enqueue(body []byte) string {
	q.nextID++
	m := &stored{
		id:   formatID(q.name, q.nextID),
		body: append([]byte(nil), body...),
	}
	q.available = append(q.available, m)
	return m.id
}

func (q *Queue) wakeWaiters(n int) {
	for n > 0 && len(q.waiters) > 0 {
		w := q.waiters[0]
		q.waiters = q.waiters[1:]
		if w.Released() {
			// The waiter's deadline latch already fired: its receiver
			// timed out and just hasn't resumed to remove itself yet.
			// Spending an arrival wake-up on it would leave a live
			// long-poller asleep until its full deadline, so prune it
			// without consuming the wake-up.
			continue
		}
		w.Release()
		n--
	}
}

// Receive returns up to max (≤ MaxBatch) messages, long-polling for up to
// wait if the queue is empty. Received messages become invisible for the
// queue's visibility timeout and reappear unless deleted — the at-least-once
// contract.
//
// Unlike one-shot requests, the service time is split around the poll so a
// long-polled message still pays the response leg after it arrives.
func (q *Queue) Receive(p *sim.Proc, caller *netsim.Node, max int, wait time.Duration) ([]Message, error) {
	if max <= 0 || max > MaxBatch {
		return nil, ErrBatchTooBig
	}
	fe := q.svc.fe
	service := fe.SampleOp()
	fe.InLeg(p, caller, service/2)
	deadline := p.Now() + wait
	for len(q.available) == 0 && p.Now() < deadline {
		w := q.waiter(p.Kernel())
		q.waiters = append(q.waiters, w)
		w.timer.ResetAt(deadline)
		w.Wait(p)
		w.timer.Stop() // woken by an arrival: drop the deadline event
		q.dropWaiter(w)
		q.idle = append(q.idle, w)
	}
	msgs := make([]Message, 0, min(max, len(q.available)))
	for len(msgs) < max && len(q.available) > 0 {
		m := q.available[0]
		q.available = q.available[1:]
		if q.exhausted(m) {
			continue // moved to the dead-letter queue
		}
		q.nextRcpt++
		m.receipt = formatID(q.rcptPrefix, q.nextRcpt)
		m.attempts++
		q.inflight[m.receipt] = m
		q.scheduleReappear(p.Kernel(), m)
		msgs = append(msgs, Message{
			ID:       m.id,
			Body:     m.body,
			Receipt:  m.receipt,
			Attempts: m.attempts,
		})
	}
	// The response is billed like a send: one request per started 64KB
	// chunk of returned payload (an empty poll still bills one request).
	var payload int64
	for _, m := range msgs {
		payload += int64(len(m.Body))
	}
	fe.Charge("sqs.request", billedRequests(payload), fe.Catalog().SQSPerRequest)
	fe.OutLeg(p, caller, service/2)
	return msgs, nil
}

// waiter returns an unreleased wait state for a long poll, recycling one
// from the idle list when it can.
func (q *Queue) waiter(k *sim.Kernel) *pollWaiter {
	if n := len(q.idle); n > 0 {
		w := q.idle[n-1]
		q.idle = q.idle[:n-1]
		w.Reset()
		return w
	}
	w := &pollWaiter{}
	w.timer = k.NewTimer(w.Release)
	return w
}

func (q *Queue) dropWaiter(w *pollWaiter) {
	for i, cand := range q.waiters {
		if cand == w {
			q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
			return
		}
	}
}

// scheduleReappear arms the in-flight message's visibility timer: when it
// fires the undeleted message becomes receivable again (the at-least-once
// contract). Delete cancels the timer, so a normally acknowledged message
// costs the kernel no dead event. The timer is created on the first
// receipt and re-armed on each redelivery; it is never active here, so
// Reset takes a fresh sequence number exactly as a new timer would.
func (q *Queue) scheduleReappear(k *sim.Kernel, m *stored) {
	if m.vis == nil {
		m.vis = k.NewTimer(func() {
			delete(q.inflight, m.receipt)
			q.available = append(q.available, m)
			q.wakeWaiters(1)
		})
	}
	m.vis.Reset(q.visibility)
}

// ack removes a receipt's message from the in-flight set, cancelling its
// visibility timer. Unknown receipts (already expired and redelivered) are
// ignored, matching SQS.
func (q *Queue) ack(receipt string) {
	if m, ok := q.inflight[receipt]; ok {
		m.vis.Stop()
		delete(q.inflight, receipt)
	}
}

// Delete acknowledges a delivery by receipt. A shed delete simply leaves
// the message in flight — it reappears at the visibility timeout and is
// redelivered, which is the at-least-once contract doing its job.
func (q *Queue) Delete(p *sim.Proc, caller *netsim.Node, receipt string) {
	if q.request(p, caller, 0) != nil {
		return
	}
	q.ack(receipt)
}

// DeleteBatch acknowledges up to MaxBatch deliveries in one request.
func (q *Queue) DeleteBatch(p *sim.Proc, caller *netsim.Node, receipts []string) error {
	if len(receipts) > MaxBatch {
		return ErrBatchTooBig
	}
	if err := q.request(p, caller, 0); err != nil {
		// Nothing acked: every receipt redelivers at visibility timeout.
		return err
	}
	for _, r := range receipts {
		q.ack(r)
	}
	return nil
}
