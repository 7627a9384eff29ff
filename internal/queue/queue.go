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
// SQS-specific: queues, visibility timeouts and long polling.
package queue

import (
	"errors"
	"slices"
	"strconv"
	"strings"
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

// Message is a received message. Receipt identifies this delivery for
// Delete; Attempts counts deliveries (1 on first receipt).
type Message struct {
	ID       string
	Body     []byte
	Receipt  string
	Attempts int
}

// opLatency is per-request service time, calibrated so that an EC2
// client's send plus a long-polling server's response leg plus the result
// send lands at the paper's 13 ms serving batch.
var opLatency simrand.Dist = simrand.LogNormal{Median: 4000 * time.Microsecond, Sigma: 0.15}

// nicBps is the front end's aggregate network capacity (400 Gbps).
const nicBps netsim.Bps = 400e9 / 8

// OpLatency returns the distribution each SQS request's service time is
// drawn from.
func OpLatency() simrand.Dist { return opLatency }

// Service is a simulated SQS endpoint hosting any number of named queues.
type Service struct {
	fe     *service.Frontend
	queues map[string]*Queue
}

// NewService creates an SQS endpoint attached to the network.
func NewService(name string, net *netsim.Network, rack int, rng *simrand.RNG,
	catalog *pricing.Catalog, meter *pricing.Meter) *Service {
	return &Service{
		fe:     service.NewFrontend(name, net, rack, rng, opLatency, nicBps, catalog, meter),
		queues: make(map[string]*Queue),
	}
}

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
	q.vis = s.fe.Net().Kernel().NewTimer(q.expire)
	q.bindSteps()
	s.queues[name] = q
	return q
}

// Queue is one named message queue.
//
// Visibility deadlines are kept in receipt order in the hidden FIFO, and
// only its head is scheduled: the queue's single timer vis is armed at the
// head's deadline exactly when the FIFO is non-empty. Because visibility
// is fixed per queue, deadlines never decrease along the FIFO, so
// expiries fire at their deadlines, one per firing, in receipt order.
type Queue struct {
	svc        *Service
	name       string
	rcptPrefix string // "rcpt-" + name, the receipt handle's stem
	visibility time.Duration
	available  sim.Ring[*stored]
	inflight   map[string]*stored // by receipt
	hidden     sim.Ring[visEntry] // deliveries in receipt order; the head is live
	vis        *sim.Timer         // armed at the head's deadline
	free       []*stored          // acknowledged records awaiting reuse
	slab       []stored           // unused records of the current chunk
	// waiters holds the long polls waiting for a message, oldest first.
	// It is compacted in place, never resliced from the front, so its
	// backing array is reused.
	waiters  []*recvTrip
	trips    []*recvTrip     // recycled long-poll records
	ids      strings.Builder // current block of IDs and receipts
	bodies   []byte          // current block of message bodies
	nextID   int64
	nextRcpt int64

	// The long poll's steps (see Receive and PollUntil), bound once here
	// so that a poll allocates nothing.
	pollStep, wokeStep, againStep func(*sim.Proc)
}

type stored struct {
	id       string
	body     []byte
	attempts int
	// receipt is the current delivery's handle, the in-flight map key.
	receipt string
	// delivery is the receipt number of the message's latest delivery (0
	// before the first and once acknowledged). A visEntry is live only
	// while its delivery matches, so an entry left behind by an ack never
	// matches the record again, even once it is recycled.
	delivery int64
}

// visEntry is one delivery's visibility deadline.
type visEntry struct {
	due      sim.Time
	m        *stored
	delivery int64
}

// live reports whether the entry's delivery is still in flight.
func (e *visEntry) live() bool { return e.m.delivery == e.delivery }

// recvTrip is one Receive's state while its chain of steps runs, reached
// through the poller's Trip.Ref. Records are recycled through the queue's
// trips list, so a poll allocates nothing in steady state.
type recvTrip struct {
	caller   *netsim.Node
	dst      []Message
	max      int
	wait     time.Duration
	half     time.Duration // each leg's share of the sampled service time
	deadline sim.Time
	stop     *PollStop // PollUntil's stop; nil for Receive
	// woke is the signal a waiting poll is queued on. An arrival, or
	// timer at the poll's deadline, fires it after taking the record off
	// the waiter list. The timer is bound once, when the record is made,
	// and re-armed per wait.
	woke  sim.Signal
	timer sim.Timer
}

// PollStop ends the PollUntil loops it is given. The zero value is not
// stopped.
type PollStop struct {
	stopped bool
	// queued holds the loops whose next poll is the step that their
	// current response leg's wake-up runs.
	queued []*sim.Proc
}

// Stopped reports whether Stop has been called.
func (s *PollStop) Stopped() bool { return s.stopped }

// Stop ends every loop given s at the end of its current poll's response
// leg, the event where a loop of Receive calls would next check a stop
// flag: a loop whose next poll is already queued there resumes its caller
// instead.
func (s *PollStop) Stop() {
	s.stopped = true
	for _, p := range s.queued {
		p.Redirect(nil)
	}
	clear(s.queued)
	s.queued = s.queued[:0]
}

// dequeue removes p from the loops whose next poll is queued.
func (s *PollStop) dequeue(p *sim.Proc) {
	for i, cand := range s.queued {
		if cand == p {
			last := len(s.queued) - 1
			s.queued[i] = s.queued[last]
			s.queued[last] = nil
			s.queued = s.queued[:last]
			return
		}
	}
}

// idBlockBytes is the size of one block of ID and receipt bytes, and
// bodyBlockBytes of one block of message bodies.
const (
	idBlockBytes   = 4096
	bodyBlockBytes = 4096
)

// slabMessages is how many message records one slab chunk holds: 16
// records fill the 1,152-byte size class exactly, small enough for a
// queue that carries a handful of messages.
const slabMessages = 16

// formatID renders prefix-n, the form of message IDs and receipt handles,
// into the queue's current ID block and returns it as a substring of the
// block, so a handle costs a share of one allocation. A full block is
// replaced, never reset or written over, so every string handed out keeps
// its bytes.
func (q *Queue) formatID(prefix string, n int64) string {
	var num [20]byte
	digits := strconv.AppendInt(num[:0], n, 10)
	need := len(prefix) + 1 + len(digits)
	if q.ids.Cap()-q.ids.Len() < need {
		q.ids = strings.Builder{}
		q.ids.Grow(max(idBlockBytes, need))
	}
	start := q.ids.Len()
	q.ids.WriteString(prefix)
	q.ids.WriteByte('-')
	q.ids.Write(digits)
	return q.ids.String()[start:]
}

// copyBody copies a message body into the queue's current body block, the
// way formatID places IDs, and returns it capped at its length, so a
// receiver's append reallocates instead of writing over the next body. A
// full block is replaced, never reused, so a delivered Message.Body keeps
// its bytes, and a body larger than a block gets a block of its own size.
// An empty body is nil.
func (q *Queue) copyBody(body []byte) []byte {
	n := len(body)
	if n == 0 {
		return nil
	}
	if cap(q.bodies)-len(q.bodies) < n {
		q.bodies = make([]byte, 0, max(bodyBlockBytes, n))
	}
	start := len(q.bodies)
	q.bodies = append(q.bodies, body...)
	return q.bodies[start:len(q.bodies):len(q.bodies)]
}

// Depth reports the number of immediately receivable messages. No
// experiment reads it; it is kept as a test oracle, with InFlight, for
// the drain checks and the visibility reference model.
func (q *Queue) Depth() int { return q.available.Len() }

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
// The message record is recycled from an acknowledged one when it can be,
// and otherwise carved out of the queue's slab; the body's bytes never
// are reused, because received Messages alias them.
func (q *Queue) enqueue(body []byte) string {
	q.nextID++
	var m *stored
	if n := len(q.free); n > 0 {
		m = q.free[n-1]
		q.free = q.free[:n-1]
	} else {
		if len(q.slab) == 0 {
			q.slab = make([]stored, slabMessages)
		}
		m = &q.slab[0]
		q.slab = q.slab[1:]
	}
	m.id = q.formatID(q.name, q.nextID)
	m.body = q.copyBody(body)
	q.available.Push(m)
	return m.id
}

// wakeWaiters wakes up to n waiting long polls, oldest first, and removes
// them from the list by moving the rest to the front. Every poll on the
// list is live: one whose deadline fired has already left it.
func (q *Queue) wakeWaiters(n int) {
	n = min(n, len(q.waiters))
	for _, t := range q.waiters[:n] {
		t.woke.Fire()
	}
	rest := copy(q.waiters, q.waiters[n:])
	clear(q.waiters[rest:])
	q.waiters = q.waiters[:rest]
}

// Receive appends up to max (≤ MaxBatch) messages to dst and returns the
// extended slice, long-polling for up to wait if the queue is empty. A
// caller that polls in a loop can pass its last batch's buffer as
// dst[:0]; a nil dst gets a slice sized to the messages received.
// Received messages become invisible for the queue's visibility timeout
// and reappear unless deleted — the at-least-once contract.
//
// Unlike one-shot requests, the service time is split around the poll so a
// long-polled message still pays the response leg after it arrives.
//
// The caller's process parks once. Everything from the end of the request
// leg to the start of the response leg is queue-side work, so it runs as a
// chain of steps (see sim.Proc.WakeAfter) at the events where the process
// would have resumed: poll at the end of the request leg, woke at each
// wake-up of the waiting poll (see bindSteps).
func (q *Queue) Receive(p *sim.Proc, caller *netsim.Node, dst []Message, max int, wait time.Duration) ([]Message, error) {
	return q.receive(p, caller, dst, max, wait, nil)
}

// PollUntil is Receive called again and again until a poll returns
// messages or stop is stopped when a poll's response leg ends: the idle
// loop of an event-source poller. A poll that comes back empty starts the
// next one at the end of its response leg as a step, so an idle loop
// resumes its caller only when it returns: with messages, with none once
// stopped, or with ErrBatchTooBig at once.
func (q *Queue) PollUntil(p *sim.Proc, caller *netsim.Node, dst []Message, max int, wait time.Duration, stop *PollStop) ([]Message, error) {
	return q.receive(p, caller, dst, max, wait, stop)
}

// receive runs Receive's chain, repeated while polls come back empty when
// stop is not nil and not stopped.
func (q *Queue) receive(p *sim.Proc, caller *netsim.Node, dst []Message, max int, wait time.Duration, stop *PollStop) ([]Message, error) {
	if max <= 0 || max > MaxBatch {
		return dst, ErrBatchTooBig
	}
	t := q.trip(p.Kernel())
	t.caller, t.dst, t.max, t.wait, t.stop = caller, dst, max, wait, stop
	p.Trip = sim.Trip{Ref: t}
	q.againStep(p)
	p.Park()
	p.Trip = sim.Trip{}
	dst = t.dst
	t.caller, t.dst, t.stop = nil, nil, nil
	q.trips = append(q.trips, t)
	return dst, nil
}

// trip returns a long-poll record whose timer is bound and unarmed,
// recycling one when it can.
func (q *Queue) trip(k *sim.Kernel) *recvTrip {
	if n := len(q.trips); n > 0 {
		t := q.trips[n-1]
		q.trips = q.trips[:n-1]
		return t
	}
	t := &recvTrip{}
	t.timer.Init(k, func() {
		q.dropWaiter(t)
		t.woke.Fire()
	})
	return t
}

// bindSteps builds the long poll's steps once per queue. Each step's
// schedule calls and draws are the ones a blocking poll made at the same
// event, in the same order, so the event order is unchanged.
func (q *Queue) bindSteps() {
	// again starts a poll: it samples the service time and draws the
	// request leg. The caller's body runs it for the first poll, and the
	// end of an empty poll's response leg runs it for the next one in a
	// PollUntil loop.
	q.againStep = func(p *sim.Proc) {
		t := p.Trip.Ref.(*recvTrip)
		if t.stop != nil {
			t.stop.dequeue(p)
		}
		fe := q.svc.fe
		t.half = fe.SampleOp() / 2
		p.WakeAfter(fe.InLeg(t.caller, t.half), q.pollStep)
	}
	// poll ends the request leg: the poll's deadline starts now.
	q.pollStep = func(p *sim.Proc) {
		t := p.Trip.Ref.(*recvTrip)
		t.deadline = p.Now() + t.wait
		q.poll(p, t)
	}
	// woke runs when the poll is woken, by an arrival or by its
	// deadline, either of which has taken it off the waiter list: the
	// deadline event goes (it is gone already if it fired) and the poll
	// looks again.
	q.wokeStep = func(p *sim.Proc) {
		t := p.Trip.Ref.(*recvTrip)
		t.timer.Stop()
		q.poll(p, t)
	}
}

// poll waits for a message while the queue is empty and the deadline has
// not passed, queuing the record on the waiter list with its timer armed
// at the deadline, so that its wake-up runs wokeStep; otherwise it
// delivers.
func (q *Queue) poll(p *sim.Proc, t *recvTrip) {
	if q.available.Len() == 0 && p.Now() < t.deadline {
		q.waiters = append(q.waiters, t)
		t.timer.ResetAt(t.deadline)
		t.woke.WaitStep(p, q.wokeStep)
		return
	}
	q.deliver(p, t)
}

// deliver hands out up to t.max messages, bills the response and starts
// the response leg, whose end resumes the caller, or starts the next poll
// of a PollUntil loop that got nothing and is not stopped.
func (q *Queue) deliver(p *sim.Proc, t *recvTrip) {
	n := min(t.max, q.available.Len())
	dst := slices.Grow(t.dst, n)
	// The response is billed like a send: one request per started 64KB
	// chunk of returned payload (an empty poll still bills one request).
	var payload int64
	for range n {
		m := q.available.Pop()
		q.nextRcpt++
		m.receipt = q.formatID(q.rcptPrefix, q.nextRcpt)
		m.delivery = q.nextRcpt
		m.attempts++
		q.inflight[m.receipt] = m
		q.hide(p.Kernel(), m)
		dst = append(dst, Message{
			ID:       m.id,
			Body:     m.body,
			Receipt:  m.receipt,
			Attempts: m.attempts,
		})
		payload += int64(len(m.body))
	}
	t.dst = dst
	fe := q.svc.fe
	fe.Charge("sqs.request", billedRequests(payload), fe.Catalog().SQSPerRequest)
	if n == 0 && t.stop != nil && !t.stop.stopped {
		t.stop.queued = append(t.stop.queued, p)
		p.WakeAfter(fe.OutLeg(t.caller, t.half), q.againStep)
		return
	}
	p.WakeAfter(fe.OutLeg(t.caller, t.half), nil)
}

// dropWaiter takes a poll whose deadline fired off the waiter list, if an
// arrival has not woken it in the same instant.
func (q *Queue) dropWaiter(t *recvTrip) {
	if i := slices.Index(q.waiters, t); i >= 0 {
		q.waiters = slices.Delete(q.waiters, i, i+1)
	}
}

// hide starts the in-flight message's visibility timeout: its deadline
// joins the FIFO, and arms the queue's timer if it is the only one.
func (q *Queue) hide(k *sim.Kernel, m *stored) {
	due := k.Now() + q.visibility
	q.hidden.Push(visEntry{due: due, m: m, delivery: m.delivery})
	if q.hidden.Len() == 1 {
		q.vis.ResetAt(due)
	}
}

// expire fires at the head delivery's deadline: the undeleted message
// becomes receivable again (the at-least-once contract). One delivery
// expires per firing; a later one due at the same instant fires after the
// events already scheduled for it, the timer being re-armed here.
func (q *Queue) expire() {
	m := q.hidden.Pop().m
	delete(q.inflight, m.receipt)
	q.available.Push(m)
	q.wakeWaiters(1)
	q.rearm()
}

// rearm drops acknowledged deliveries from the head of the FIFO, then arms
// the timer at the first live deadline, or stops it when none is left.
func (q *Queue) rearm() {
	for q.hidden.Len() > 0 && !q.hidden.Peek().live() {
		q.hidden.Pop()
	}
	if q.hidden.Len() == 0 {
		q.vis.Stop()
		return
	}
	q.vis.ResetAt(q.hidden.Peek().due)
}

// ack removes a receipt's message from the in-flight set and recycles its
// record. Its FIFO entry goes stale in place; if it was the head, the
// timer moves on to the next live deadline, so an acknowledged message
// costs the kernel no dead event. Unknown receipts (already expired and
// redelivered) are ignored, matching SQS.
func (q *Queue) ack(receipt string) {
	m, ok := q.inflight[receipt]
	if !ok {
		return
	}
	delete(q.inflight, receipt)
	head := q.hidden.Peek().m == m
	*m = stored{}
	q.free = append(q.free, m)
	if head {
		q.rearm()
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
