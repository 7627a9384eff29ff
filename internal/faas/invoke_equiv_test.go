package faas

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// refInvoke is invoke written as blocking process code, one park per
// sleep, the slot acquire and the payload transfer: the reference the
// stepped invocation must match event for event. A non-negative delay is
// slept first, as the event-source mapping's dispatch delay was.
func refInvoke(pf *Platform, p *sim.Proc, delay time.Duration, name string, payload []byte) ([]byte, Report, error) {
	if delay >= 0 {
		p.Sleep(delay)
	}
	fn, ok := pf.functions[name]
	if !ok {
		return nil, Report{}, fmt.Errorf("%w: %q", ErrNoSuchFunction, name)
	}
	if len(payload) > PayloadLimit {
		return nil, Report{}, ErrPayloadTooLarge
	}
	pf.meter.Charge("lambda.request", 1, pf.catalog.LambdaPerRequest)
	p.Sleep(pf.cfg.InvokeOverhead.Sample(pf.rng))

	if pf.concurrency.InUse() == pf.concurrency.Capacity() {
		refQueuedForSlot++
	}
	pf.concurrency.Acquire(p)
	defer pf.concurrency.Release()
	fn.stats.beginExecution()
	defer fn.stats.endExecution()

	cont, cold := refAcquireContainer(pf, p, fn)
	if len(payload) > 0 {
		pf.net.Fabric().Transfer(p, int64(len(payload)), cont.vm.node.NIC())
	}

	start := p.Now()
	ctx := &cont.ctx
	*ctx = Ctx{proc: p, pf: pf, fn: fn, cont: cont, deadline: start + fn.Timeout, cold: cold}
	resp, err := fn.Handler(ctx, payload)
	dur := p.Now() - start

	timedOut := dur > fn.Timeout
	billed := dur
	if timedOut {
		billed = fn.Timeout
	}
	pf.meter.ChargeCost("lambda.gbsec", pf.catalog.LambdaCompute(fn.MemoryMB, billed))
	rep := Report{
		Duration:       dur,
		BilledDuration: pricing.LambdaDuration(billed),
		ColdStart:      cold,
		VMNode:         cont.vm.node,
	}
	fn.stats.Invocations++
	fn.stats.TotalTime += dur
	fn.stats.BilledTime += rep.BilledDuration
	if cold {
		fn.stats.ColdStarts++
	}
	if timedOut {
		fn.stats.Timeouts++
	}
	if err != nil || timedOut {
		fn.stats.Errors++
	}
	if timedOut {
		pf.destroyContainer(cont)
		return nil, rep, fmt.Errorf("%w after %v (limit %v)", ErrTimeout, dur, fn.Timeout)
	}
	pf.releaseContainer(p, cont)
	return resp, rep, err
}

// refAcquireContainer is the blocking container pick: a warm container if
// one is idle, otherwise a cold start on a packed VM, with a sleep for
// either start.
func refAcquireContainer(pf *Platform, p *sim.Proc, fn *Function) (*container, bool) {
	pool := pf.idle[fn.Name]
	for len(pool) > 0 {
		cont := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if !cont.provisioned && p.Now()-cont.lastUsed > pf.cfg.WarmTTL {
			pf.destroyContainer(cont)
			continue
		}
		pf.idle[fn.Name] = pool
		if cont.reap != nil {
			cont.reap.Stop()
		}
		p.Sleep(pf.cfg.WarmStart.Sample(pf.rng))
		return cont, false
	}
	pf.idle[fn.Name] = pool
	vm := pf.pickVM()
	vm.containers++
	p.Sleep(pf.cfg.ColdStart.Sample(pf.rng))
	return &container{fn: fn, vm: vm, local: make(map[string]any)}, true
}

// refQueuedForSlot counts the reference's invocations that found every
// concurrency slot taken when they asked for one.
var refQueuedForSlot int

type invokeFunc func(pf *Platform, p *sim.Proc, delay time.Duration, name string, payload []byte) ([]byte, Report, error)

// invOp is one step of a worker's plan: an invocation after an optional
// delay, or a sleep.
type invOp struct {
	sleep bool
	d     time.Duration // the sleep, or the invocation's leading delay (-1: none)
	fn    string
	size  int
}

func newInvokePlan(seed uint64) [][]invOp {
	r := rand.New(rand.NewPCG(seed, 3))
	var workers [][]invOp
	for range 8 {
		var ops []invOp
		for range 24 {
			if r.IntN(4) == 0 {
				// Long enough, now and then, for idle containers to expire.
				ops = append(ops, invOp{sleep: true, d: time.Duration(r.IntN(2500)) * time.Millisecond})
				continue
			}
			op := invOp{d: -1, fn: []string{"a", "b"}[r.IntN(2)]}
			if r.IntN(2) == 0 {
				op.d = time.Duration(r.IntN(150_000)) * time.Microsecond
			}
			switch r.IntN(6) {
			case 0: // empty payload
			case 1:
				op.size = 1 + r.IntN(200_000)
			default:
				op.size = 1 + r.IntN(4_000)
			}
			switch r.IntN(40) {
			case 0:
				op.fn = "ghost"
			case 1:
				op.size = PayloadLimit + 1
			}
			ops = append(ops, op)
		}
		workers = append(workers, ops)
	}
	return workers
}

// invEvent is one completed invocation as its worker saw it.
type invEvent struct {
	worker, n int
	done      sim.Time
	resp      string
	rep       Report // without its VM node, which is vm
	vm        string
	err       string
}

// invResult is everything the two implementations must agree on.
type invResult struct {
	sched            sim.Sched
	end              sim.Time
	events           []invEvent
	stats            [2]FunctionStats
	inFlight         [2]int
	cost             pricing.USD
	pfDraw, netDraw  uint64
	vms, inUse, wait int
	warmIdle         [2]int
	// midChain counts the processes parked inside an invocation's chain
	// with the concurrency slot held, when a cut run is closed.
	midChain int
	// After Close, for a cut run.
	closedInUse    int
	closedInFlight [2]int
}

// runInvoke runs plan in a fresh world whose invocations go through inv,
// on a platform of three concurrency slots, two containers per VM and a
// short warm TTL, with function a replaced mid-run. A non-negative cut
// stops the run there and closes the kernel with processes mid-flight.
func runInvoke(t *testing.T, plan [][]invOp, inv invokeFunc, cut sim.Time) invResult {
	t.Helper()
	k := sim.NewKernel()
	rng := simrand.New(7)
	netRNG, pfRNG := rng.Fork(), rng.Fork()
	net := netsim.NewNetwork(k, netRNG, netsim.DefaultLatency())
	meter := &pricing.Meter{}
	cfg := DefaultConfig()
	cfg.InvokeOverhead = simrand.LogNormal{Median: 20 * time.Millisecond, Sigma: 0.3}
	cfg.ColdStart = simrand.LogNormal{Median: 120 * time.Millisecond, Sigma: 0.3}
	cfg.AccountConcurrency = 3
	cfg.ContainersPerVM = 2
	cfg.WarmTTL = 1500 * time.Millisecond
	pf := New("lambda", net, pfRNG, cfg, pricing.Fall2018(), meter)
	// a sleeps by its payload size and times out on some sizes; b
	// computes over its payload and fails on some sizes.
	handlerA := func(ctx *Ctx, payload []byte) ([]byte, error) {
		d := time.Duration(len(payload)%7)*40*time.Millisecond + 5*time.Millisecond
		if len(payload)%11 == 3 {
			d = 1200 * time.Millisecond
		}
		ctx.Proc().Sleep(d)
		return []byte(fmt.Sprintf("a%d", len(payload))), nil
	}
	register := func(name string, mem int, h Handler) {
		if err := pf.Register(Function{Name: name, MemoryMB: mem, Timeout: time.Second, Handler: h}); err != nil {
			t.Fatal(err)
		}
	}
	register("a", 256, handlerA)
	register("b", 1024, func(ctx *Ctx, payload []byte) ([]byte, error) {
		ctx.Compute(int64(len(payload)) * 500)
		if len(payload)%5 == 1 {
			return nil, fmt.Errorf("b failed on %d bytes", len(payload))
		}
		return nil, nil
	})
	k.At(4*time.Second, func() { register("a", 256, handlerA) })

	var res invResult
	payload := make([]byte, PayloadLimit+1)
	var procs []*sim.Proc
	for w, ops := range plan {
		procs = append(procs, k.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for n, op := range ops {
				if op.sleep {
					p.Sleep(op.d)
					continue
				}
				resp, rep, err := inv(pf, p, op.d, op.fn, payload[:op.size])
				ev := invEvent{worker: w, n: n, done: p.Now(), resp: string(resp), rep: rep}
				if rep.VMNode != nil {
					ev.vm, ev.rep.VMNode = rep.VMNode.ID(), nil
				}
				if err != nil {
					ev.err = err.Error()
				}
				res.events = append(res.events, ev)
			}
		}))
	}
	if cut < 0 {
		res.end = k.Run()
	} else {
		res.end = k.RunUntil(cut)
		for _, p := range procs {
			if tr, ok := p.Trip.Ref.(*invokeTrip); ok && tr.held {
				res.midChain++
			}
		}
	}
	res.sched = k.Sched()
	for i, name := range []string{"a", "b"} {
		res.stats[i], _ = pf.Stats(name)
		res.inFlight[i] = pf.functions[name].stats.inFlight
		res.warmIdle[i] = pf.WarmIdle(name)
	}
	res.cost = meter.Total()
	res.pfDraw, res.netDraw = pfRNG.Uint64(), netRNG.Uint64()
	res.vms, res.inUse, res.wait = pf.VMCount(), pf.concurrency.InUse(), pf.concurrency.Waiting()
	k.Close()
	res.closedInUse = pf.concurrency.InUse()
	for i, name := range []string{"a", "b"} {
		res.closedInFlight[i] = pf.functions[name].stats.inFlight
	}
	return res
}

// compareInvoke reports every difference between got and ref.
func compareInvoke(t *testing.T, label string, got, ref invResult) {
	t.Helper()
	if got.sched.Hash != ref.sched.Hash || got.end != ref.end {
		t.Errorf("%s: schedule hash %x ending at %v, reference %x at %v",
			label, got.sched.Hash, got.end, ref.sched.Hash, ref.end)
	}
	if got.sched.Dispatched+got.sched.Handoffs != ref.sched.Dispatched+ref.sched.Handoffs {
		t.Errorf("%s: consumed %+v events, reference %+v", label, got.sched, ref.sched)
	}
	if len(got.events) != len(ref.events) {
		t.Fatalf("%s: %d invocations completed, reference %d", label, len(got.events), len(ref.events))
	}
	for i := range ref.events {
		if got.events[i] != ref.events[i] {
			t.Fatalf("%s: invocation %d is %+v, reference %+v", label, i, got.events[i], ref.events[i])
		}
	}
	if got.stats != ref.stats || got.inFlight != ref.inFlight || got.warmIdle != ref.warmIdle {
		t.Errorf("%s: stats %+v in flight %v warm %v, reference %+v %v %v",
			label, got.stats, got.inFlight, got.warmIdle, ref.stats, ref.inFlight, ref.warmIdle)
	}
	if got.cost != ref.cost || got.pfDraw != ref.pfDraw || got.netDraw != ref.netDraw {
		t.Errorf("%s: billing %v next draws %x/%x, reference %v %x/%x",
			label, got.cost, got.pfDraw, got.netDraw, ref.cost, ref.pfDraw, ref.netDraw)
	}
	if got.vms != ref.vms || got.inUse != ref.inUse || got.wait != ref.wait {
		t.Errorf("%s: %d VMs, %d slots held, %d waiting; reference %d, %d, %d",
			label, got.vms, got.inUse, got.wait, ref.vms, ref.inUse, ref.wait)
	}
	if got.closedInUse != ref.closedInUse || got.closedInFlight != ref.closedInFlight {
		t.Errorf("%s: after Close %d slots held and %v executions in flight, reference %d and %v",
			label, got.closedInUse, got.closedInFlight, ref.closedInUse, ref.closedInFlight)
	}
}

// The stepped invocation is the blocking one, event for event: over
// randomized mixes of warm, cold and expired containers, a saturated
// concurrency limit, empty, large and oversized payloads, leading delays,
// timeouts, handler errors and a redeploy mid-run, both consume the same
// (at, seq) schedule, complete every invocation at the same time with the
// same response, report and error, end with the same Stats, bill, fleet
// and slot state, and leave every RNG at the same next draw.
func TestInvokeStepsMatchBlockingReference(t *testing.T) {
	refQueuedForSlot = 0
	var cold, warm, timeouts, errs int64
	for seed := uint64(1); seed <= 10; seed++ {
		plan := newInvokePlan(seed)
		ref := runInvoke(t, plan, refInvoke, -1)
		got := runInvoke(t, plan, (*Platform).invoke, -1)
		compareInvoke(t, fmt.Sprintf("seed %d", seed), got, ref)
		if got.sched.Resumes >= ref.sched.Resumes {
			t.Errorf("seed %d: %d resumes, not fewer than the reference's %d",
				seed, got.sched.Resumes, ref.sched.Resumes)
		}
		for _, st := range ref.stats {
			cold += st.ColdStarts
			warm += st.Invocations - st.ColdStarts
			timeouts += st.Timeouts
			errs += st.Errors
		}
	}
	if cold == 0 || warm == 0 || timeouts == 0 || errs == 0 || refQueuedForSlot == 0 {
		t.Errorf("the mixes never exercised a path: %d cold, %d warm, %d timeouts, %d errors, %d queued for a slot",
			cold, warm, timeouts, errs, refQueuedForSlot)
	}
}

// A kernel closed while invocations are mid-chain leaves the concurrency
// slots and the execution counters as the blocking code did: an unwound
// body gives back its slot and ends its execution once the slot was
// granted, and holds neither before.
func TestInvokeClosedMidChainMatchesBlockingReference(t *testing.T) {
	midChain := 0
	for seed := uint64(1); seed <= 6; seed++ {
		plan := newInvokePlan(seed)
		r := rand.New(rand.NewPCG(seed, 9))
		for range 8 {
			cut := sim.Time(r.IntN(6000)) * sim.Time(time.Millisecond)
			ref := runInvoke(t, plan, refInvoke, cut)
			got := runInvoke(t, plan, (*Platform).invoke, cut)
			compareInvoke(t, fmt.Sprintf("seed %d cut at %v", seed, cut), got, ref)
			midChain += got.midChain
		}
	}
	if midChain == 0 {
		t.Error("no cut caught an invocation mid-chain holding its slot")
	}
}
