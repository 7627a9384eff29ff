package queue

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// refReceive is Receive written as blocking process code: a sleep for the
// request leg, a park per wait on a poll record's signal, and a sleep
// for the response leg. It is the reference the stepped Receive must
// match event for event.
func refReceive(q *Queue, p *sim.Proc, caller *netsim.Node, dst []Message, max int, wait time.Duration) ([]Message, error) {
	if max <= 0 || max > MaxBatch {
		return dst, ErrBatchTooBig
	}
	fe := q.svc.fe
	svc := fe.SampleOp()
	p.Sleep(fe.InLeg(caller, svc/2))
	deadline := p.Now() + wait
	t := q.trip(p.Kernel())
	for q.available.Len() == 0 && p.Now() < deadline {
		q.waiters = append(q.waiters, t)
		t.timer.ResetAt(deadline)
		t.woke.Wait(p)
		if q.available.Len() > 0 {
			refWokenByMessage++
		}
		t.timer.Stop()
	}
	q.trips = append(q.trips, t)
	n := min(max, q.available.Len())
	var payload int64
	for range n {
		m := q.available.Pop()
		q.nextRcpt++
		m.receipt = q.formatID(q.rcptPrefix, q.nextRcpt)
		m.delivery = q.nextRcpt
		m.attempts++
		q.inflight[m.receipt] = m
		q.hide(p.Kernel(), m)
		dst = append(dst, Message{ID: m.id, Body: m.body, Receipt: m.receipt, Attempts: m.attempts})
		payload += int64(len(m.body))
	}
	fe.Charge("sqs.request", billedRequests(payload), fe.Catalog().SQSPerRequest)
	p.Sleep(fe.OutLeg(caller, svc/2))
	return dst, nil
}

// refWokenByMessage counts the reference's waits that a message ended
// (an arrival or an expiry), as opposed to the poll's deadline.
var refWokenByMessage int

type receiveFunc func(q *Queue, p *sim.Proc, caller *netsim.Node, dst []Message, max int, wait time.Duration) ([]Message, error)

// recvOp is one step of a worker's plan: a poll, a send or a sleep.
type recvOp struct {
	kind      int // rxPoll, rxSend or rxSleep
	q, caller int
	max       int
	d         time.Duration // the poll's wait, or the sleep
	bodies    int           // messages in a send; 1 is Send, more SendBatch
	size      int           // bytes per body
	keep      int           // a poll deletes all but its first keep messages
	batch     bool          // delete with DeleteBatch rather than Delete
}

const (
	rxPoll = iota
	rxSend
	rxSleep
)

const (
	rxQueues  = 2
	rxCallers = 4
)

func newRecvPlan(seed uint64) [][]recvOp {
	r := simrand.New(seed)
	var workers [][]recvOp
	for w := 0; w < 9; w++ {
		poller := w < 6
		var ops []recvOp
		for n := 0; n < 30; n++ {
			op := recvOp{q: r.Intn(rxQueues), caller: r.Intn(rxCallers)}
			switch x := r.Intn(10); {
			case x < 2:
				op.kind, op.d = rxSleep, time.Duration(r.Intn(40_000))*time.Microsecond
			case poller:
				op.kind, op.max = rxPoll, 1+r.Intn(MaxBatch)
				switch r.Intn(12) {
				case 0:
					op.max = 0 // rejected
				case 1:
					op.max = MaxBatch + 1
				}
				if r.Intn(3) > 0 {
					op.d = time.Duration(r.Intn(80_000)) * time.Microsecond
				}
				op.keep, op.batch = r.Intn(3), r.Intn(2) == 0
			default:
				op.kind, op.bodies = rxSend, 1+r.Intn(4)
				op.size = r.Intn(3) * r.Intn(90_000)
				if r.Intn(15) == 0 {
					op.size = MaxMessageSize + 1 // rejected
				}
			}
			ops = append(ops, op)
		}
		workers = append(workers, ops)
	}
	return workers
}

// recvEvent is one completed operation as its worker saw it.
type recvEvent struct {
	worker, n int
	done      sim.Time
	got       string // the messages or IDs, in order
	err       error
}

// recvResult is everything the two implementations must agree on.
type recvResult struct {
	sched           sim.Sched
	end             sim.Time
	events          []recvEvent
	stats           service.Stats
	cost            pricing.USD
	feDraw, netDraw uint64
	depth, inflight [rxQueues]int
	empty, full     int // polls that came back empty and full
	redelivered     int // deliveries after a visibility expiry
}

// runRecv runs plan in a fresh world whose polls go through recv: two
// queues with short visibility timeouts, so undeleted messages expire and
// are redelivered mid-run, and callers in every latency class.
func runRecv(t *testing.T, plan [][]recvOp, recv receiveFunc) recvResult {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(5)
	netRNG, feRNG := rng.Fork(), rng.Fork()
	net := netsim.NewNetwork(k, netRNG, netsim.DefaultLatency())
	meter := &pricing.Meter{}
	svc := NewService("sqs", net, 9, feRNG, pricing.Fall2018(), meter)
	qs := []*Queue{svc.CreateQueue("a", 30*time.Millisecond), svc.CreateQueue("b", 120*time.Millisecond)}
	callers := []*netsim.Node{
		net.NewNode("c0", 0, netsim.Gbps(10)),
		net.NewNode("c1", 9, netsim.Gbps(10)),
		net.NewNode("c2", 4, netsim.Gbps(10)),
		svc.fe.Node(),
	}
	var res recvResult
	body := make([]byte, MaxMessageSize+1)
	for w, ops := range plan {
		k.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			var msgs []Message
			for n, op := range ops {
				q, caller := qs[op.q], callers[op.caller]
				ev := recvEvent{worker: w, n: n}
				switch op.kind {
				case rxSleep:
					p.Sleep(op.d)
					continue
				case rxSend:
					var ids []string
					if op.bodies == 1 {
						id, err := q.Send(p, caller, body[:op.size])
						ids, ev.err = []string{id}, err
					} else {
						bodies := make([][]byte, op.bodies)
						for i := range bodies {
							bodies[i] = body[:op.size]
						}
						ids, ev.err = q.SendBatch(p, caller, bodies)
					}
					ev.got = strings.Join(ids, ",")
				case rxPoll:
					msgs, ev.err = recv(q, p, caller, msgs[:0], op.max, op.d)
					var b strings.Builder
					for _, m := range msgs {
						fmt.Fprintf(&b, "%s/%s/%d/%d,", m.ID, m.Receipt, m.Attempts, len(m.Body))
						if m.Attempts > 1 {
							res.redelivered++
						}
					}
					ev.got = b.String()
					switch {
					case ev.err != nil:
					case len(msgs) == 0:
						res.empty++
					case len(msgs) == op.max:
						res.full++
					}
				}
				ev.done = p.Now()
				res.events = append(res.events, ev)
				if op.kind == rxPoll && len(msgs) > op.keep {
					var receipts []string
					for _, m := range msgs[op.keep:] {
						receipts = append(receipts, m.Receipt)
					}
					if op.batch {
						q.DeleteBatch(p, caller, receipts)
					} else {
						for _, r := range receipts {
							q.Delete(p, caller, r)
						}
					}
				}
			}
		})
	}
	res.end = k.Run()
	res.sched = k.Sched()
	res.stats = svc.fe.Stats()
	res.cost = meter.Total()
	res.feDraw, res.netDraw = feRNG.Uint64(), netRNG.Uint64()
	for i, q := range qs {
		res.depth[i], res.inflight[i] = q.Depth(), q.InFlight()
	}
	return res
}

// The stepped Receive is the blocking one, event for event: over
// randomized mixes of concurrent long pollers with zero and non-zero
// waits, senders whose messages arrive during polls, and deliveries left
// to expire and be redelivered, both consume the same (at, seq) schedule,
// complete every operation at the same time with the same messages, end
// with the same Stats, bill and queue state, and leave every RNG at the
// same next draw.
func TestReceiveStepsMatchBlockingReference(t *testing.T) {
	var empty, full, redelivered int
	refWokenByMessage = 0
	for seed := uint64(1); seed <= 12; seed++ {
		plan := newRecvPlan(seed)
		ref := runRecv(t, plan, refReceive)
		got := runRecv(t, plan, (*Queue).Receive)
		if got.sched.Hash != ref.sched.Hash || got.end != ref.end {
			t.Errorf("seed %d: schedule hash %x ending at %v, reference %x at %v",
				seed, got.sched.Hash, got.end, ref.sched.Hash, ref.end)
		}
		if got.sched.Dispatched+got.sched.Handoffs != ref.sched.Dispatched+ref.sched.Handoffs {
			t.Errorf("seed %d: consumed %+v events, reference %+v", seed, got.sched, ref.sched)
		}
		if got.sched.Resumes >= ref.sched.Resumes {
			t.Errorf("seed %d: %d resumes, not fewer than the reference's %d",
				seed, got.sched.Resumes, ref.sched.Resumes)
		}
		if len(got.events) != len(ref.events) {
			t.Fatalf("seed %d: %d operations completed, reference %d", seed, len(got.events), len(ref.events))
		}
		for i := range ref.events {
			if got.events[i] != ref.events[i] {
				t.Fatalf("seed %d: operation %d is %+v, reference %+v", seed, i, got.events[i], ref.events[i])
			}
		}
		if got.stats != ref.stats || got.cost != ref.cost {
			t.Errorf("seed %d: stats %+v billing %v, reference %+v %v", seed, got.stats, got.cost, ref.stats, ref.cost)
		}
		if got.feDraw != ref.feDraw || got.netDraw != ref.netDraw {
			t.Errorf("seed %d: next draws %x/%x, reference %x/%x", seed, got.feDraw, got.netDraw, ref.feDraw, ref.netDraw)
		}
		if got.depth != ref.depth || got.inflight != ref.inflight {
			t.Errorf("seed %d: depth %v in flight %v, reference %v %v", seed, got.depth, got.inflight, ref.depth, ref.inflight)
		}
		empty += ref.empty
		full += ref.full
		redelivered += ref.redelivered
	}
	if empty == 0 || full == 0 || redelivered == 0 || refWokenByMessage == 0 {
		t.Errorf("the mixes never exercised a path: %d empty polls, %d full, %d redeliveries, %d waits ended by a message",
			empty, full, redelivered, refWokenByMessage)
	}
}

// refPollUntil is PollUntil written as the loop of blocking polls that an
// event-source poller ran: poll again while polls come back empty and the
// stop flag is clear when the poll returns.
func refPollUntil(q *Queue, p *sim.Proc, caller *netsim.Node, dst []Message, max int, wait time.Duration, stop *PollStop) ([]Message, error) {
	for {
		msgs, err := refReceive(q, p, caller, dst, max, wait)
		if err != nil || len(msgs) > 0 || stop.Stopped() {
			return msgs, err
		}
	}
}

type pollUntilFunc func(q *Queue, p *sim.Proc, caller *netsim.Node, dst []Message, max int, wait time.Duration, stop *PollStop) ([]Message, error)

// loopResult is everything the two poll loops must agree on.
type loopResult struct {
	sched           sim.Sched
	end             sim.Time
	events          []recvEvent
	stats           service.Stats
	feDraw, netDraw uint64
	redirected      int // loops whose queued next poll Stop redirected
}

// runLoops runs five event-source-style pollers on one queue, each polling
// through poll until it gets messages, then holding them a while and
// deleting them, until a stop at stopAt; a sender sends bursts at random
// times throughout.
func runLoops(t *testing.T, seed uint64, stopAt sim.Time, poll pollUntilFunc) loopResult {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(5)
	netRNG, feRNG := rng.Fork(), rng.Fork()
	net := netsim.NewNetwork(k, netRNG, netsim.DefaultLatency())
	svc := NewService("sqs", net, 9, feRNG, pricing.Fall2018(), &pricing.Meter{})
	q := svc.CreateQueue("in", 400*time.Millisecond)
	caller := net.NewNode("ctl", 1, netsim.Gbps(10))
	var res loopResult
	var stop PollStop
	k.At(stopAt, func() {
		res.redirected = len(stop.queued)
		stop.Stop()
	})
	plan := simrand.New(seed)
	for w := range 5 {
		max, wait := 1+plan.Intn(MaxBatch), time.Duration(plan.Intn(60_000))*time.Microsecond
		hold := time.Duration(plan.Intn(30_000)) * time.Microsecond
		k.Spawn(fmt.Sprintf("poller%d", w), func(p *sim.Proc) {
			var msgs []Message
			n := 0
			for !stop.Stopped() {
				var err error
				msgs, err = poll(q, p, caller, msgs[:0], max, wait, &stop)
				ev := recvEvent{worker: w, n: n, done: p.Now(), err: err}
				n++
				for _, m := range msgs {
					ev.got += m.ID + ","
				}
				res.events = append(res.events, ev)
				if err != nil || len(msgs) == 0 {
					continue
				}
				p.Sleep(hold)
				for _, m := range msgs {
					q.Delete(p, caller, m.Receipt)
				}
			}
		})
	}
	sends := simrand.New(seed + 100)
	k.Spawn("sender", func(p *sim.Proc) {
		for p.Now() < stopAt+200*time.Millisecond {
			p.Sleep(time.Duration(sends.Intn(150_000)) * time.Microsecond)
			for range 1 + sends.Intn(6) {
				q.Send(p, caller, nil)
			}
		}
	})
	res.end = k.Run()
	res.sched = k.Sched()
	res.stats = svc.fe.Stats()
	res.feDraw, res.netDraw = feRNG.Uint64(), netRNG.Uint64()
	return res
}

// PollUntil is the blocking loop of polls, event for event, stop included:
// over randomized pollers, bursts of sends and stop times, both consume
// the same (at, seq) schedule, return every poll at the same time with the
// same messages, end with the same Stats and leave every RNG at the same
// next draw. A stop that finds a loop's next poll queued at the end of its
// response leg resumes the caller there, where the blocking loop checked
// its flag.
func TestPollUntilMatchesBlockingLoop(t *testing.T) {
	redirected := 0
	for seed := uint64(1); seed <= 40; seed++ {
		stopAt := sim.Time(200+simrand.New(seed+7).Intn(1500)) * sim.Time(time.Millisecond)
		ref := runLoops(t, seed, stopAt, refPollUntil)
		got := runLoops(t, seed, stopAt, (*Queue).PollUntil)
		if got.sched.Hash != ref.sched.Hash || got.end != ref.end {
			t.Errorf("seed %d: schedule hash %x ending at %v, reference %x at %v",
				seed, got.sched.Hash, got.end, ref.sched.Hash, ref.end)
		}
		if got.sched.Resumes >= ref.sched.Resumes {
			t.Errorf("seed %d: %d resumes, not fewer than the reference's %d", seed, got.sched.Resumes, ref.sched.Resumes)
		}
		if len(got.events) != len(ref.events) {
			t.Fatalf("seed %d: %d polls returned, reference %d", seed, len(got.events), len(ref.events))
		}
		for i := range ref.events {
			if got.events[i] != ref.events[i] {
				t.Fatalf("seed %d: poll %d is %+v, reference %+v", seed, i, got.events[i], ref.events[i])
			}
		}
		if got.stats != ref.stats || got.feDraw != ref.feDraw || got.netDraw != ref.netDraw {
			t.Errorf("seed %d: stats %+v next draws %x/%x, reference %+v %x/%x",
				seed, got.stats, got.feDraw, got.netDraw, ref.stats, ref.feDraw, ref.netDraw)
		}
		redirected += got.redirected
	}
	if redirected == 0 {
		t.Error("no stop found a loop's next poll queued")
	}
}
