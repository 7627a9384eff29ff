package queue

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
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
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(11)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	svc := NewService("sqs", net, 9, rng.Fork(), DefaultConfig(), pricing.Fall2018(), meter)
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
		msgs, err = f.q.Receive(p, f.caller, 10, 0)
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
		msgs, _ := f.q.Receive(p, f.caller, 10, 0)
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
		_, recvErr = f.q.Receive(p, f.caller, 11, 0)
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
			msgs, _ := f.q.Receive(p, f.caller, 1, 0)
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
		msgs, _ := f.q.Receive(p, f.caller, 10, 20*time.Second)
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
		msgs, _ := f.q.Receive(p, f.caller, 10, 2*time.Second)
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
		first, _ = f.q.Receive(p, f.caller, 1, 0)
		// Do not delete; wait past the visibility timeout.
		p.Sleep(15 * time.Second)
		second, _ = f.q.Receive(p, f.caller, 1, 0)
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
		msgs, _ := f.q.Receive(p, f.caller, 1, 0)
		f.q.Delete(p, f.caller, msgs[0].Receipt)
		p.Sleep(20 * time.Second)
		again, _ := f.q.Receive(p, f.caller, 1, 0)
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
		f.q.Receive(p, f.caller, 1, 0)
		p.Sleep(3 * time.Second) // expires, redelivered to queue
		msgs, _ := f.q.Receive(p, f.caller, 1, 0)
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
		msgs, _ := f.q.Receive(p, f.caller, 10, 0)                     // 1 request
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
		f.q.Receive(p, f.caller, 1, 0)                // response carries the same 4
	})
	f.k.Run()
	if got := f.meter.Count("sqs.request"); got != 8 {
		t.Errorf("200KB send+receive billed %d requests, want 8 (4 each way)", got)
	}
}

// TestArrivalWakeUpSkipsTimedOutWaiter reproduces the lost-wake-up race
// with two staggered long-pollers: receiver A's wait deadline fires (its
// latch releases) in the same instant a message arrives, before A's process
// has resumed and removed itself from the waiters list. The arrival's
// wake-up must go to the live receiver B, not be absorbed by A's dead latch
// — otherwise B sleeps until its full deadline even though work arrived.
func TestArrivalWakeUpSkipsTimedOutWaiter(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	f.k.Spawn("A", func(p *sim.Proc) {
		f.q.Receive(p, f.caller, 1, time.Second)
	})
	f.k.RunUntil(sim.Time(100 * time.Millisecond)) // A is parked
	f.k.Spawn("B", func(p *sim.Proc) {
		f.q.Receive(p, f.caller, 1, 20*time.Second)
	})
	f.k.RunUntil(sim.Time(500 * time.Millisecond)) // B is parked behind A
	if len(f.q.waiters) != 2 {
		t.Fatalf("waiters = %d, want 2 staggered long-pollers", len(f.q.waiters))
	}
	deadA, liveB := f.q.waiters[0], f.q.waiters[1]
	f.k.At(sim.Time(500*time.Millisecond), func() {
		deadA.Release() // what A's deadline timer does
		// What a message arrival does, before A has resumed/dropped:
		f.q.available = append(f.q.available, &stored{id: "m", body: []byte("x")})
		f.q.wakeWaiters(1)
		if !liveB.Released() {
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
			msgs, _ := f.q.Receive(p, f.caller, 10, time.Second)
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
		first, _ = f.q.Receive(p, f.caller, 1, 0)
		p.Sleep(3 * time.Second) // the first receipt expires
		second, _ = f.q.Receive(p, f.caller, 1, 0)
		f.q.Delete(p, f.caller, first[0].Receipt)
		staleInFlight = f.q.InFlight()
		f.q.Delete(p, f.caller, second[0].Receipt)
		pendingAfterAck = f.k.Pending()
		p.Sleep(10 * time.Second)
		third, _ = f.q.Receive(p, f.caller, 1, 0)
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
// with polls an arrival wakes, so every poll after the first reuses
// recycled wait state. A timed-out poll must return at its deadline, a
// woken one at the arrival, and no deadline event may outlive its poll.
func TestRecycledLongPollWaiters(t *testing.T) {
	f := newFixture(t, 30*time.Second)
	const wait = 2 * time.Second
	// respond bounds the response leg a poll pays after waking.
	const respond = 50 * time.Millisecond
	f.k.Spawn("c", func(p *sim.Proc) {
		for round := 0; round < 6; round++ {
			start := p.Now()
			if round%2 == 0 {
				msgs, _ := f.q.Receive(p, f.caller, 10, wait)
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
				msgs, _ := f.q.Receive(p, f.caller, 10, wait)
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
	if len(f.q.waiters) != 0 || len(f.q.idle) != 1 {
		t.Errorf("waiters = %d, idle = %d; want 0 and one recycled waiter",
			len(f.q.waiters), len(f.q.idle))
	}
}

// BenchmarkQueueEmptyLongPoll is one long poll that times out empty per
// op: the waiter and its deadline timer are recycled, so it allocates
// nothing once warm.
func BenchmarkQueueEmptyLongPoll(b *testing.B) {
	f := newFixture(b, 30*time.Second)
	f.k.Spawn("c", func(p *sim.Proc) {
		f.q.Receive(p, f.caller, 10, time.Second) // warm the waiter
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f.q.Receive(p, f.caller, 10, time.Second)
		}
		b.StopTimer()
	})
	f.k.Run()
}

// BenchmarkQueueMessageCycle is one Send + Receive + DeleteBatch per op,
// the event-source mapping's steady state with a one-message batch.
func BenchmarkQueueMessageCycle(b *testing.B) {
	f := newFixture(b, 30*time.Second)
	body := make([]byte, 32)
	receipts := make([]string, 1)
	cycle := func(p *sim.Proc) {
		f.q.Send(p, f.caller, body)
		msgs, _ := f.q.Receive(p, f.caller, 10, time.Second)
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
