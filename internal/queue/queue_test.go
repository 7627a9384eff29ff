package queue

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k      *sim.Kernel
	svc    *Service
	q      *Queue
	caller *netsim.Node
	meter  *pricing.Meter
}

func newFixture(t testing.TB, visibility time.Duration) *fixture {
	t.Helper()
	return newFixtureWith(t, visibility, netsim.DefaultLatency())
}

func newFixtureWith(t testing.TB, visibility time.Duration, lat netsim.LatencyProfile) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(11)
	net := netsim.NewNetwork(k, rng.Fork(), lat)
	meter := &pricing.Meter{}
	svc := NewService("sqs", net, 9, rng.Fork(), pricing.Fall2018(), meter)
	caller := net.NewNode("caller", 0, netsim.Mbps(538))
	return &fixture{k: k, svc: svc, q: svc.CreateQueue("jobs", visibility), caller: caller, meter: meter}
}

func TestSendReceiveDelete(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	var msgs []Message
	f.k.Spawn("c", func(p *sim.Proc) {
		if _, err := f.q.Send(p, f.caller, []byte("hello")); err != nil {
			t.Errorf("Send: %v", err)
		}
		var err error
		msgs, err = f.q.Receive(p, f.caller, nil, 10, 0)
		if err != nil {
			t.Errorf("Receive: %v", err)
		}
		for _, m := range msgs {
			f.q.Delete(p, f.caller, m.Receipt)
		}
	})
	f.k.Run()
	if len(msgs) != 1 || string(msgs[0].Body) != "hello" || msgs[0].Attempts != 1 {
		t.Errorf("msgs = %+v", msgs)
	}
	if f.q.Depth() != 0 || f.q.InFlight() != 0 {
		t.Errorf("queue not drained: depth=%d inflight=%d", f.q.Depth(), f.q.InFlight())
	}
}

func TestReceiveBatchesUpToTen(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	var got int
	f.k.Spawn("c", func(p *sim.Proc) {
		var bodies [][]byte
		for i := 0; i < 10; i++ {
			bodies = append(bodies, []byte{byte(i)})
		}
		if _, err := f.q.SendBatch(p, f.caller, bodies); err != nil {
			t.Errorf("SendBatch: %v", err)
		}
		f.q.Send(p, f.caller, []byte("extra"))
		msgs, _ := f.q.Receive(p, f.caller, nil, 10, 0)
		got = len(msgs)
	})
	f.k.Run()
	if got != 10 {
		t.Errorf("Receive returned %d, want 10 (SQS batch cap)", got)
	}
}

func TestBatchLimits(t *testing.T) {
	f := newFixture(t, time.Second)
	var sendErr, recvErr, bigErr error
	f.k.Spawn("c", func(p *sim.Proc) {
		bodies := make([][]byte, 11)
		for i := range bodies {
			bodies[i] = []byte("x")
		}
		_, sendErr = f.q.SendBatch(p, f.caller, bodies)
		_, recvErr = f.q.Receive(p, f.caller, nil, 11, 0)
		_, bigErr = f.q.Send(p, f.caller, make([]byte, MaxMessageSize+1))
	})
	f.k.Run()
	if !errors.Is(sendErr, ErrBatchTooBig) || !errors.Is(recvErr, ErrBatchTooBig) {
		t.Errorf("batch errors: %v, %v", sendErr, recvErr)
	}
	if !errors.Is(bigErr, ErrTooLarge) {
		t.Errorf("oversize error: %v", bigErr)
	}
}

func TestFIFOWithinSim(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	var order []byte
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := byte(1); i <= 3; i++ {
			f.q.Send(p, f.caller, []byte{i})
		}
		for len(order) < 3 {
			msgs, _ := f.q.Receive(p, f.caller, nil, 1, 0)
			for _, m := range msgs {
				order = append(order, m.Body[0])
				f.q.Delete(p, f.caller, m.Receipt)
			}
		}
	})
	f.k.Run()
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestLongPollWaitsForMessage(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	var recvAt sim.Time
	var got int
	f.k.Spawn("consumer", func(p *sim.Proc) {
		msgs, _ := f.q.Receive(p, f.caller, nil, 10, 20*time.Second)
		recvAt = p.Now()
		got = len(msgs)
	})
	f.k.Spawn("producer", func(p *sim.Proc) {
		p.Sleep(5 * time.Second)
		f.q.Send(p, f.caller, []byte("late"))
	})
	f.k.Run()
	if got != 1 {
		t.Fatalf("long poll returned %d messages", got)
	}
	if recvAt < 5*time.Second || recvAt > 6*time.Second {
		t.Errorf("long poll returned at %v, want ~5s", recvAt)
	}
}

func TestLongPollTimesOutEmpty(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	var recvAt sim.Time
	var got int
	f.k.Spawn("consumer", func(p *sim.Proc) {
		msgs, _ := f.q.Receive(p, f.caller, nil, 10, 2*time.Second)
		recvAt = p.Now()
		got = len(msgs)
	})
	f.k.Run()
	if got != 0 {
		t.Fatalf("empty poll returned %d messages", got)
	}
	if recvAt < 2*time.Second || recvAt > 2*time.Second+100*time.Millisecond {
		t.Errorf("empty poll returned at %v, want ~2s", recvAt)
	}
}

func TestVisibilityTimeoutRedelivers(t *testing.T) {
	f := newFixture(t, 10*time.Second)
	var first, second []Message
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Send(p, f.caller, []byte("work"))
		first, _ = f.q.Receive(p, f.caller, nil, 1, 0)
		// Do not delete; wait past the visibility timeout.
		p.Sleep(15 * time.Second)
		second, _ = f.q.Receive(p, f.caller, nil, 1, 0)
	})
	f.k.Run()
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("deliveries: %d, %d", len(first), len(second))
	}
	if second[0].ID != first[0].ID {
		t.Error("redelivery changed message identity")
	}
	if second[0].Attempts != 2 {
		t.Errorf("redelivered Attempts = %d, want 2", second[0].Attempts)
	}
	if second[0].Receipt == first[0].Receipt {
		t.Error("redelivery reused receipt handle")
	}
}

func TestDeleteBeforeTimeoutPreventsRedelivery(t *testing.T) {
	f := newFixture(t, 5*time.Second)
	var redelivered int
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Send(p, f.caller, []byte("once"))
		msgs, _ := f.q.Receive(p, f.caller, nil, 1, 0)
		f.q.Delete(p, f.caller, msgs[0].Receipt)
		p.Sleep(20 * time.Second)
		again, _ := f.q.Receive(p, f.caller, nil, 1, 0)
		redelivered = len(again)
	})
	f.k.Run()
	if redelivered != 0 {
		t.Errorf("deleted message redelivered %d times", redelivered)
	}
}

func TestStaleTimerDoesNotDuplicateAfterRedelivery(t *testing.T) {
	// Receive, let it expire, receive again, then delete: the first
	// (stale) visibility timer must not resurrect the message.
	f := newFixture(t, 2*time.Second)
	var finalDepth int
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Send(p, f.caller, []byte("x"))
		f.q.Receive(p, f.caller, nil, 1, 0)
		p.Sleep(3 * time.Second) // expires, redelivered to queue
		msgs, _ := f.q.Receive(p, f.caller, nil, 1, 0)
		f.q.Delete(p, f.caller, msgs[0].Receipt)
		p.Sleep(10 * time.Second)
		finalDepth = f.q.Depth() + f.q.InFlight()
	})
	f.k.Run()
	if finalDepth != 0 {
		t.Errorf("message duplicated: %d left in queue", finalDepth)
	}
}

func TestRequestMetering(t *testing.T) {
	f := newFixture(t, time.Second)
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Send(p, f.caller, []byte("a"))                             // 1 request
		f.q.SendBatch(p, f.caller, [][]byte{[]byte("b"), []byte("c")}) // 1 request
		msgs, _ := f.q.Receive(p, f.caller, nil, 10, 0)                // 1 request
		var receipts []string
		for _, m := range msgs {
			receipts = append(receipts, m.Receipt)
		}
		f.q.DeleteBatch(p, f.caller, receipts) // 1 request
	})
	f.k.Run()
	if got := f.meter.Count("sqs.request"); got != 4 {
		t.Errorf("sqs.request count = %d, want 4", got)
	}
}

func TestLargePayloadBilledPerChunk(t *testing.T) {
	f := newFixture(t, time.Second)
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Send(p, f.caller, make([]byte, 200*1024)) // 4 x 64KB chunks
	})
	f.k.Run()
	if got := f.meter.Count("sqs.request"); got != 4 {
		t.Errorf("200KB send billed %d requests, want 4", got)
	}
}

// TestReceiveBillsResponsePerChunk: the receive response pays the same
// 64KB-chunk billing as the send side; a flat per-call charge would
// undercount large-message consumers. Small (~1KB) serving messages stay at
// one request per receive, which is what keeps the 57x serving-cost ratio
// in tolerance (asserted by core's servingcost test and golden trace).
func TestReceiveBillsResponsePerChunk(t *testing.T) {
	f := newFixture(t, time.Second)
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Send(p, f.caller, make([]byte, 200*1024)) // 4 x 64KB chunks
		f.q.Receive(p, f.caller, nil, 1, 0)           // response carries the same 4
	})
	f.k.Run()
	if got := f.meter.Count("sqs.request"); got != 8 {
		t.Errorf("200KB send+receive billed %d requests, want 8 (4 each way)", got)
	}
}

// TestArrivalWakeUpSkipsTimedOutWaiter reproduces the lost-wake-up race
// with two staggered long-pollers: receiver A's deadline timer fires in
// the same instant a message arrives, ahead of the arrival, so A's wake-up
// is still pending when the arrival wakes a poll. The arrival's wake-up
// must go to the live receiver B, not be spent on A, which has already
// timed out — otherwise B sleeps until its full deadline even though work
// arrived.
func TestArrivalWakeUpSkipsTimedOutWaiter(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	f.k.Spawn("A", func(p *sim.Proc) {
		f.q.Receive(p, f.caller, nil, 1, time.Second)
	})
	f.k.RunUntil(sim.Time(100 * time.Millisecond)) // A is waiting
	f.k.Spawn("B", func(p *sim.Proc) {
		f.q.Receive(p, f.caller, nil, 1, 20*time.Second)
	})
	f.k.RunUntil(sim.Time(500 * time.Millisecond)) // B waits behind A
	if len(f.q.waiters) != 2 {
		t.Fatalf("waiters = %d, want 2 staggered long-pollers", len(f.q.waiters))
	}
	deadA, liveB := f.q.waiters[0], f.q.waiters[1]
	// Scheduled after A's deadline timer was armed, the arrival runs in
	// the same instant, after the timer.
	f.k.At(deadA.deadline, func() {
		if deadA.timer.Active() || slices.Contains(f.q.waiters, deadA) {
			t.Fatal("A's deadline has not fired ahead of the arrival")
		}
		f.q.available.Push(&stored{id: "m", body: []byte("x")})
		f.q.wakeWaiters(1)
		if slices.Contains(f.q.waiters, liveB) || liveB.woke.Waiting() != 0 {
			t.Error("arrival wake-up absorbed by timed-out waiter; live long-poller left sleeping")
		}
	})
	f.k.Run()
}

func TestCreateQueueIdempotent(t *testing.T) {
	f := newFixture(t, time.Second)
	if f.svc.CreateQueue("jobs", time.Minute) != f.q {
		t.Error("CreateQueue with same name returned a different queue")
	}
}

// Calibration: an immediate receive plus a send from EC2 should take ~10.6ms
// (two ~5.3ms request round trips), so that the serving case study's
// send + long-poll response + result send lands at the paper's 13ms batch.
func TestOpLatencyCalibration(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	const trials = 500
	var total sim.Time
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < trials; i++ {
			f.q.Send(p, f.caller, []byte("ping"))
			start := p.Now()
			msgs, _ := f.q.Receive(p, f.caller, nil, 10, time.Second)
			f.q.Send(p, f.caller, []byte("result"))
			total += p.Now() - start
			for _, m := range msgs {
				f.q.Delete(p, f.caller, m.Receipt)
			}
		}
	})
	f.k.Run()
	mean := time.Duration(int64(total) / trials)
	if mean < 9500*time.Microsecond || mean > 11800*time.Microsecond {
		t.Errorf("receive+send mean = %v, want ~10.6ms", mean)
	}
}

// TestRedeliveryRearmsVisibilityTimer drives one message through two
// deliveries on its single, re-armed visibility timer: acking with the
// stale first receipt is a no-op that leaves the redelivery in flight,
// acking with the current receipt stops the timer, and nothing is left
// scheduled or redelivered afterwards.
func TestRedeliveryRearmsVisibilityTimer(t *testing.T) {
	f := newFixture(t, 2*time.Second)
	var first, second, third []Message
	var staleInFlight, pendingAfterAck int
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Send(p, f.caller, []byte("x"))
		first, _ = f.q.Receive(p, f.caller, nil, 1, 0)
		p.Sleep(3 * time.Second) // the first receipt expires
		second, _ = f.q.Receive(p, f.caller, nil, 1, 0)
		f.q.Delete(p, f.caller, first[0].Receipt)
		staleInFlight = f.q.InFlight()
		f.q.Delete(p, f.caller, second[0].Receipt)
		pendingAfterAck = f.k.Pending()
		p.Sleep(10 * time.Second)
		third, _ = f.q.Receive(p, f.caller, nil, 1, 0)
	})
	f.k.Run()
	if len(first) != 1 || len(second) != 1 {
		t.Fatalf("deliveries: %d, %d; want 1, 1", len(first), len(second))
	}
	if second[0].Attempts != 2 || second[0].Receipt == first[0].Receipt {
		t.Errorf("redelivery = %+v after %+v", second[0], first[0])
	}
	if staleInFlight != 1 {
		t.Errorf("in flight after stale-receipt delete = %d, want 1", staleInFlight)
	}
	if pendingAfterAck != 0 {
		t.Errorf("pending events after ack = %d, want 0 (visibility timer left armed)", pendingAfterAck)
	}
	if len(third) != 0 || f.q.Depth()+f.q.InFlight() != 0 {
		t.Errorf("acked message delivered again: %d, depth %d, in flight %d",
			len(third), f.q.Depth(), f.q.InFlight())
	}
}

// TestRecycledLongPollWaiters alternates long polls that time out empty
// with polls an arrival wakes, so every poll after the first reuses the
// first poll's record and its bound deadline timer. A timed-out poll must
// return at its deadline, a woken one at the arrival, and no deadline
// event may outlive its poll.
func TestRecycledLongPollWaiters(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	const wait = 2 * time.Second
	// respond bounds the response leg a poll pays after waking.
	const respond = 50 * time.Millisecond
	f.k.Spawn("c", func(p *sim.Proc) {
		for round := 0; round < 6; round++ {
			start := p.Now()
			if round%2 == 0 {
				msgs, _ := f.q.Receive(p, f.caller, nil, 10, wait)
				if len(msgs) != 0 {
					t.Fatalf("round %d: empty poll returned %d messages", round, len(msgs))
				}
				if el := p.Now() - start; el < wait || el > wait+respond {
					t.Errorf("round %d: empty poll returned after %v, want ~%v", round, el, wait)
				}
			} else {
				var arrived sim.Time
				p.Kernel().Spawn("producer", func(pp *sim.Proc) {
					pp.Sleep(500 * time.Millisecond)
					f.q.Send(pp, f.caller, []byte("job"))
					arrived = pp.Now()
				})
				msgs, _ := f.q.Receive(p, f.caller, nil, 10, wait)
				if len(msgs) != 1 {
					t.Fatalf("round %d: woken poll returned %d messages", round, len(msgs))
				}
				if el := p.Now() - arrived; el <= 0 || el > respond {
					t.Errorf("round %d: woken poll returned %v after the arrival", round, el)
				}
				f.q.DeleteBatch(p, f.caller, []string{msgs[0].Receipt})
			}
			if n := f.k.Pending(); n != 0 {
				t.Errorf("round %d: %d events pending between polls, want 0", round, n)
			}
		}
	})
	f.k.Run()
	if len(f.q.waiters) != 0 || len(f.q.trips) != 1 {
		t.Errorf("waiters = %d, trips = %d; want 0 and one recycled record",
			len(f.q.waiters), len(f.q.trips))
	}
}

// TestReceiveReusedBufferKeepsEarlierMessages: a poller that receives
// every batch into the same buffer overwrites its Message values, but the
// bodies, IDs and receipts a copy of an earlier batch holds stay intact,
// even once those messages are deleted and their records recycled.
func TestReceiveReusedBufferKeepsEarlierMessages(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	f.k.Spawn("c", func(p *sim.Proc) {
		dst := make([]Message, 0, MaxBatch)
		var kept []Message
		want := make(map[string]string) // message ID -> body
		for batch := 0; batch < 4; batch++ {
			for i := 0; i < 3; i++ {
				body := fmt.Sprintf("batch-%d-msg-%d", batch, i)
				id, err := f.q.Send(p, f.caller, []byte(body))
				if err != nil {
					t.Fatalf("Send: %v", err)
				}
				want[id] = body
			}
			got, err := f.q.Receive(p, f.caller, dst[:0], MaxBatch, 0)
			if err != nil || len(got) != 3 {
				t.Fatalf("batch %d: Receive = %d messages, err %v", batch, len(got), err)
			}
			if &got[0] != &dst[:1][0] {
				t.Fatalf("batch %d: Receive did not append into the buffer it was given", batch)
			}
			kept = append(kept, got...)
			receipts := make([]string, len(got))
			for i, m := range got {
				receipts[i] = m.Receipt
			}
			if err := f.q.DeleteBatch(p, f.caller, receipts); err != nil {
				t.Fatalf("DeleteBatch: %v", err)
			}
			dst = got
		}
		receipts := make(map[string]bool)
		for _, m := range kept {
			if body, ok := want[m.ID]; !ok || string(m.Body) != body {
				t.Errorf("kept message %s reads %q, want %q", m.ID, m.Body, body)
			}
			if !strings.HasPrefix(m.Receipt, "rcpt-jobs-") || receipts[m.Receipt] {
				t.Errorf("kept message %s has receipt %q, a duplicate or malformed one", m.ID, m.Receipt)
			}
			receipts[m.Receipt] = true
		}
		if len(kept) != len(want) {
			t.Errorf("kept %d messages, want %d", len(kept), len(want))
		}
	})
	f.k.Run()
}

// BenchmarkQueueEmptyLongPoll is one long poll that times out empty per
// op: the waiter and its deadline timer are recycled, so it allocates
// nothing once warm.
func BenchmarkQueueEmptyLongPoll(b *testing.B) {
	f := newFixture(b, 30*time.Second)
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Receive(p, f.caller, nil, 10, time.Second) // warm the waiter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.q.Receive(p, f.caller, nil, 10, time.Second)
		}
		b.StopTimer()
	})
	f.k.Run()
}

// BenchmarkQueueMessageCycle is one Send + Receive + DeleteBatch per op,
// the event-source mapping's steady state with a one-message batch: the
// receive appends into a reused buffer, the message record is recycled,
// and the body, ID and receipt each take a share of a 4 KB block, so a
// cycle allocates nothing but its share of those blocks.
func BenchmarkQueueMessageCycle(b *testing.B) {
	f := newFixture(b, 30*time.Second)
	body := make([]byte, 32)
	receipts := make([]string, 1)
	var msgs []Message
	cycle := func(p *sim.Proc) {
		f.q.Send(p, f.caller, body)
		msgs, _ = f.q.Receive(p, f.caller, msgs[:0], 10, time.Second)
		receipts[0] = msgs[0].Receipt
		f.q.DeleteBatch(p, f.caller, receipts)
	}
	f.k.Spawn("c", func(p *sim.Proc) {
		cycle(p) // warm the in-flight map and the kernel's arena
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cycle(p)
		}
		b.StopTimer()
	})
	f.k.Run()
}

// newInstantFixture is newFixture with every network and service latency
// zero, so a request's effects land at the instant it is issued and a
// delivery's receipt time is the time Receive returns.
func newInstantFixture(t testing.TB, visibility time.Duration) *fixture {
	t.Helper()
	zero := simrand.Const(0)
	f := newFixtureWith(t, visibility, netsim.LatencyProfile{SameHost: zero, SameRack: zero, CrossRack: zero})
	// NewService's front end draws calibrated service times; swap in one
	// that takes none.
	fe := f.svc.fe
	f.svc.fe = service.NewFrontend("sqs-instant", fe.Net(), 9, fe.RNG(), zero, nicBps, fe.Catalog(), fe.Meter())
	return f
}

// visModel is the reference semantics of visibility timeouts: every
// delivery not acknowledged by receipt + visibility makes its message
// receivable again at exactly that instant, deliveries expiring in receipt
// order; an acknowledged message never reappears.
type visModel struct {
	visibility time.Duration
	available  []string            // message IDs, receive order
	inflight   map[string]*visCase // by current receipt
	order      []*visCase          // every delivery, receipt order
	attempts   map[string]int
	acked      map[string]bool
	expiries   []visExpiry // expected, in firing order
}

type visCase struct {
	id      string
	receipt string
	due     sim.Time
	done    bool // acknowledged or expired
}

type visExpiry struct {
	at sim.Time
	id string
}

// advance expires every in-flight delivery due by now, in receipt order.
func (m *visModel) advance(now sim.Time) {
	for len(m.order) > 0 && m.order[0].due <= now {
		d := m.order[0]
		m.order = m.order[1:]
		if d.done {
			continue
		}
		d.done = true
		delete(m.inflight, d.receipt)
		m.available = append(m.available, d.id)
		m.expiries = append(m.expiries, visExpiry{d.due, d.id})
	}
}

// TestVisibilityMatchesReferenceModel drives one queue through random
// sends, batch receives, acknowledgements (current receipts out of order,
// stale receipts of expired deliveries, repeated acks) and expiries with
// redelivery, and checks each against visModel. The queue's timer is
// wrapped to log every expiry, so redelivery times are checked exactly,
// and recycled message records must never expire at a stale deadline.
// Driver steps fall on 100ms boundaries and deadlines between them, while
// each receipt instant may hold several deliveries: expiries at one
// instant must keep their receipt order.
func TestVisibilityMatchesReferenceModel(t *testing.T) {
	const visibility = time.Second + 50*time.Millisecond
	for seed := uint64(1); seed <= 20; seed++ {
		f := newInstantFixture(t, visibility)
		q := f.q
		var got []visExpiry
		q.vis = f.k.NewTimer(func() {
			got = append(got, visExpiry{f.k.Now(), q.hidden.Peek().m.id})
			q.expire()
		})
		m := &visModel{
			visibility: visibility,
			inflight:   make(map[string]*visCase),
			attempts:   make(map[string]int),
			acked:      make(map[string]bool),
		}
		rng := rand.New(rand.NewPCG(seed, 0))
		var receipts []string // every receipt ever handed out
		var pendingAfterDrain int

		receive := func(p *sim.Proc, max int) {
			msgs, err := q.Receive(p, f.caller, nil, max, 0)
			if err != nil {
				t.Fatalf("seed %d: Receive: %v", seed, err)
			}
			want := m.available[:min(max, len(m.available))]
			if len(msgs) != len(want) {
				t.Fatalf("seed %d at %v: received %d messages, model has %d available",
					seed, p.Now(), len(msgs), len(want))
			}
			for i, msg := range msgs {
				if msg.ID != want[i] || m.acked[msg.ID] {
					t.Fatalf("seed %d at %v: received %s (acked %v), want %s",
						seed, p.Now(), msg.ID, m.acked[msg.ID], want[i])
				}
				m.attempts[msg.ID]++
				if msg.Attempts != m.attempts[msg.ID] {
					t.Fatalf("seed %d: %s attempts = %d, want %d", seed, msg.ID, msg.Attempts, m.attempts[msg.ID])
				}
				d := &visCase{id: msg.ID, receipt: msg.Receipt, due: p.Now() + visibility}
				m.inflight[msg.Receipt] = d
				m.order = append(m.order, d)
				receipts = append(receipts, msg.Receipt)
			}
			m.available = m.available[len(msgs):]
		}
		ack := func(p *sim.Proc, batch []string) {
			if len(batch) == 1 && rng.IntN(2) == 0 {
				q.Delete(p, f.caller, batch[0])
			} else if err := q.DeleteBatch(p, f.caller, batch); err != nil {
				t.Fatalf("seed %d: DeleteBatch: %v", seed, err)
			}
			for _, r := range batch {
				if d, ok := m.inflight[r]; ok {
					d.done = true
					delete(m.inflight, r)
					m.acked[d.id] = true
				}
			}
		}
		check := func(p *sim.Proc) {
			if q.Depth() != len(m.available) || q.InFlight() != len(m.inflight) {
				t.Fatalf("seed %d at %v: depth %d in flight %d, model %d and %d",
					seed, p.Now(), q.Depth(), q.InFlight(), len(m.available), len(m.inflight))
			}
		}

		f.k.Spawn("driver", func(p *sim.Proc) {
			for step := 0; step < 300; step++ {
				p.Sleep(time.Duration(1+rng.IntN(6)) * 100 * time.Millisecond)
				m.advance(p.Now())
				check(p)
				switch op := rng.IntN(10); {
				case op < 3:
					bodies := make([][]byte, 1+rng.IntN(4))
					for i := range bodies {
						bodies[i] = []byte{byte(step)}
					}
					ids, err := q.SendBatch(p, f.caller, bodies)
					if err != nil {
						t.Fatalf("seed %d: SendBatch: %v", seed, err)
					}
					m.available = append(m.available, ids...)
				case op < 6:
					// Several receives in one instant share a deadline.
					for n := 1 + rng.IntN(3); n > 0; n-- {
						receive(p, 1+rng.IntN(MaxBatch))
					}
				default:
					// Any receipts, in any order: current ones ack,
					// expired and already-acked ones are no-ops.
					if len(receipts) == 0 {
						continue
					}
					batch := make([]string, 1+rng.IntN(min(MaxBatch, len(receipts))))
					for i := range batch {
						batch[i] = receipts[rng.IntN(len(receipts))]
					}
					ack(p, batch)
				}
				check(p)
			}
			// Drain: ack every current delivery, then receive and ack
			// everything still receivable.
			var current []string
			for r := range m.inflight {
				current = append(current, r)
			}
			slices.Sort(current)
			for len(current) > 0 {
				n := min(MaxBatch, len(current))
				ack(p, current[:n])
				current = current[n:]
			}
			for len(m.available) > 0 {
				before := len(receipts)
				receive(p, MaxBatch)
				ack(p, receipts[before:])
			}
			check(p)
			pendingAfterDrain = f.k.Pending()
		})
		f.k.Run()
		m.advance(f.k.Now())
		if !slices.Equal(got, m.expiries) {
			t.Fatalf("seed %d: expiries\n %v\nwant\n %v", seed, got, m.expiries)
		}
		if len(got) == 0 {
			t.Errorf("seed %d: no delivery expired; the test exercises nothing", seed)
		}
		if pendingAfterDrain != 0 || q.vis.Active() {
			t.Errorf("seed %d: %d events pending after the last ack (timer active %v), want 0",
				seed, pendingAfterDrain, q.vis.Active())
		}
	}
}

// TestIDsAndReceiptsSurviveBlockRollover: IDs and receipts are carved out
// of shared blocks. With a long queue name, a name longer than a whole
// block, and more than 1,000 messages, many blocks fill and are replaced.
// Every handle must read as its fmt.Sprintf form when it is handed out,
// and still after every later send and receive.
func TestIDsAndReceiptsSurviveBlockRollover(t *testing.T) {
	f := newInstantFixture(t, time.Minute)
	long := strings.Repeat("queue-name-", 20)
	huge := strings.Repeat("q", idBlockBytes+100)
	type handle struct{ got, want string }
	var handles []handle
	check := func(when string) {
		t.Helper()
		for _, h := range handles {
			if h.got != h.want {
				t.Fatalf("%s: handle %q, want %q", when, h.got, h.want)
			}
		}
	}
	for _, name := range []string{long, huge} {
		q := f.svc.CreateQueue(name, time.Minute)
		sent, rcpts := 0, 0
		f.k.Spawn("c", func(p *sim.Proc) {
			bodies := make([][]byte, MaxBatch)
			for i := range bodies {
				bodies[i] = []byte("m")
			}
			for round := 0; round < 110; round++ {
				ids, err := q.SendBatch(p, f.caller, bodies)
				if err != nil {
					t.Fatalf("SendBatch: %v", err)
				}
				for _, id := range ids {
					sent++
					handles = append(handles, handle{id, fmt.Sprintf("%s-%d", name, sent)})
				}
				msgs, err := q.Receive(p, f.caller, nil, MaxBatch, 0)
				if err != nil || len(msgs) != MaxBatch {
					t.Fatalf("Receive: %d messages, err %v", len(msgs), err)
				}
				for _, m := range msgs {
					rcpts++
					handles = append(handles, handle{m.Receipt, fmt.Sprintf("rcpt-%s-%d", name, rcpts)})
				}
				check(fmt.Sprintf("queue of %d-byte name, round %d", len(name), round))
			}
		})
		f.k.Run()
		if sent != 1100 || rcpts != 1100 {
			t.Fatalf("sent %d and received %d, want 1100 each", sent, rcpts)
		}
	}
	check("after both queues ran")
}

// TestBodiesSurviveBlockRollover: message bodies are copied into shared
// blocks. Bodies of many sizes, one larger than a whole block, fill and
// replace several blocks. Every received body must keep its bytes after
// every later send and receive, each must end at its own length, an
// append to one must leave every other body as it was, and an empty body
// must arrive as nil.
func TestBodiesSurviveBlockRollover(t *testing.T) {
	f := newInstantFixture(t, time.Minute)
	type held struct {
		m    Message
		want string
	}
	var kept []held
	check := func(when string) {
		t.Helper()
		for _, h := range kept {
			if string(h.m.Body) != h.want {
				t.Fatalf("%s: message %s reads %.40q (%d bytes), want %.40q (%d bytes)",
					when, h.m.ID, h.m.Body, len(h.m.Body), h.want, len(h.want))
			}
		}
	}
	f.k.Spawn("c", func(p *sim.Proc) {
		want := make(map[string]string) // message ID -> body
		sent := 0
		for round := 0; round < 60; round++ {
			bodies := make([][]byte, MaxBatch)
			for i := range bodies {
				body := fmt.Sprintf("%d:", sent) + strings.Repeat("b", sent%97)
				switch sent {
				case 0, 333:
					body = ""
				case 300:
					body = strings.Repeat("L", bodyBlockBytes+100)
				}
				bodies[i] = []byte(body)
				sent++
			}
			ids, err := f.q.SendBatch(p, f.caller, bodies)
			if err != nil {
				t.Fatalf("SendBatch: %v", err)
			}
			for i, id := range ids {
				want[id] = string(bodies[i])
			}
			msgs, err := f.q.Receive(p, f.caller, nil, MaxBatch, 0)
			if err != nil || len(msgs) != MaxBatch {
				t.Fatalf("Receive: %d messages, err %v", len(msgs), err)
			}
			receipts := make([]string, len(msgs))
			for i, m := range msgs {
				if len(m.Body) != cap(m.Body) {
					t.Fatalf("message %s: body of %d bytes has capacity %d", m.ID, len(m.Body), cap(m.Body))
				}
				if want[m.ID] == "" && m.Body != nil {
					t.Fatalf("message %s: empty body arrived as %#v, want nil", m.ID, m.Body)
				}
				kept = append(kept, held{m, want[m.ID]})
				receipts[i] = m.Receipt
			}
			for _, m := range msgs {
				_ = append(m.Body, "appended"...)
			}
			if err := f.q.DeleteBatch(p, f.caller, receipts); err != nil {
				t.Fatalf("DeleteBatch: %v", err)
			}
			check(fmt.Sprintf("round %d", round))
		}
	})
	f.k.Run()
	if len(kept) != 600 {
		t.Fatalf("received %d messages, want 600", len(kept))
	}
	check("after the run")
}

// BenchmarkQueueContendedLongPoll is eight empty-bodied Sends per op, 10
// ms apart, into a queue that eight long pollers drain, each deleting what
// it receives: sends wake waiters off the front of the waiter list, and
// polls that time out take themselves off it. The list is compacted in
// place, and poll records and message records are recycled, so it
// allocates nothing once warm but a share of a 4 KB block of IDs and
// receipts. A list resliced from the front reallocates about once per
// eight wake-ups.
func BenchmarkQueueContendedLongPoll(b *testing.B) {
	f := newFixture(b, 30*time.Second)
	stop := false
	for i := range 8 {
		f.k.Spawn(fmt.Sprintf("poller%d", i), func(p *sim.Proc) {
			var msgs []Message
			for !stop {
				msgs, _ = f.q.Receive(p, f.caller, msgs[:0], 1, 60*time.Millisecond)
				for _, m := range msgs {
					f.q.Delete(p, f.caller, m.Receipt)
				}
			}
		})
	}
	send := func(p *sim.Proc) {
		for range 8 {
			f.q.Send(p, f.caller, nil)
			p.Sleep(10 * time.Millisecond)
		}
	}
	f.k.Spawn("sender", func(p *sim.Proc) {
		for range 25 {
			send(p) // warm the waiter list, records and the kernel's arena
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			send(p)
		}
		b.StopTimer()
		stop = true
	})
	f.k.Run()
}
