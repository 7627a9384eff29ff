package service

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// refRoundTripErr is RoundTripErr written as blocking process code, one
// park per leg, the slot acquire and the service time: the reference the
// stepped round trip must match event for event.
func refRoundTripErr(f *Frontend, p *sim.Proc, caller *netsim.Node, extra time.Duration) error {
	p.Sleep(f.net.OneWayDelay(caller, f.node))
	if err := f.admit(p, caller); err != nil {
		p.Sleep(f.net.OneWayDelay(f.node, caller))
		return err
	}
	if f.slots != nil {
		f.slots.Acquire(p)
	}
	svc := f.SampleOp()
	f.stats.Busy += extra
	p.Sleep(svc + extra)
	if f.slots != nil {
		f.slots.Release()
	}
	p.Sleep(f.net.OneWayDelay(f.node, caller))
	return nil
}

// equivOp is one step of a worker's plan: a round trip, a sleep, or a wait
// on one of the world's signals.
type equivOp struct {
	kind           int // opTrip, opSleep or opWait
	fe, caller, sg int
	d              time.Duration // sleep length or the trip's extra
}

const (
	opTrip = iota
	opSleep
	opWait
)

// equivPlan is a randomized mix: per-frontend latency, chaos slowdowns at
// fixed times, and each worker's ops. Both worlds run the same plan.
type equivPlan struct {
	opLat   []simrand.Dist
	slow    []equivSlow
	workers [][]equivOp
}

// equivSlow is a chaos slowdown applied to one frontend at a fixed time.
type equivSlow struct {
	at     time.Duration
	fe     int
	factor float64
}

const (
	equivFrontends = 4
	equivCallers   = 4
	equivSignals   = 2
)

func newEquivPlan(seed uint64) equivPlan {
	r := simrand.New(seed)
	var pl equivPlan
	for i := 0; i < equivFrontends; i++ {
		med := time.Duration(200+r.Intn(3000)) * time.Microsecond
		pl.opLat = append(pl.opLat, simrand.LogNormal{Median: med, Sigma: 0.5})
	}
	for i := 0; i < 6; i++ {
		pl.slow = append(pl.slow, equivSlow{
			at:     time.Duration(r.Intn(60)) * time.Millisecond,
			fe:     r.Intn(equivFrontends),
			factor: []float64{1, 0.5, 3}[r.Intn(3)],
		})
	}
	for w := 0; w < 10; w++ {
		var ops []equivOp
		for n := 0; n < 25; n++ {
			switch x := r.Intn(10); {
			case x < 6:
				op := equivOp{kind: opTrip, fe: r.Intn(equivFrontends), caller: r.Intn(equivCallers)}
				if r.Intn(3) == 0 {
					op.d = time.Duration(r.Intn(1500)) * time.Microsecond
				}
				ops = append(ops, op)
			case x < 9:
				ops = append(ops, equivOp{kind: opSleep, d: time.Duration(r.Intn(3000)-500) * time.Microsecond})
			default:
				ops = append(ops, equivOp{kind: opWait, sg: r.Intn(equivSignals)})
			}
		}
		pl.workers = append(pl.workers, ops)
	}
	return pl
}

// equivTrip is one completed round trip as its caller saw it.
type equivTrip struct {
	worker, n int
	done      sim.Time
	err       error
}

// equivResult is everything the two implementations must agree on.
type equivResult struct {
	sched   sim.Sched
	end     sim.Time
	trips   []equivTrip
	stats   []Stats
	netDraw uint64
	feDraws []uint64
	// What the mix exercised: rejections, trips that found a slot queue
	// and trips with extra service time.
	shed, jailed   int64
	queued, extras int
}

// runEquiv runs plan in a fresh world whose round trips go through trip.
// The frontends cover every admission shape: one slot with a shed bound,
// two slots with a jail, unlimited with a jail, and three plain slots. One
// caller shares a frontend's node, so every latency class is drawn.
func runEquiv(t *testing.T, pl equivPlan, trip func(*Frontend, *sim.Proc, *netsim.Node, time.Duration) error) equivResult {
	t.Helper()
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(5)
	netRNG := rng.Fork()
	net := netsim.NewNetwork(k, netRNG, netsim.DefaultLatency())
	meter := &pricing.Meter{}
	var fes []*Frontend
	var feRNGs []*simrand.RNG
	for i := 0; i < equivFrontends; i++ {
		feRNG := rng.Fork()
		fe := NewFrontend(fmt.Sprintf("fe%d", i), net, 9+i%2, feRNG, pl.opLat[i],
			netsim.Gbps(100), pricing.Fall2018(), meter)
		switch i {
		case 0:
			fe.LimitConcurrency(1)
			fe.SetAdmission(AdmissionConfig{MaxQueue: 2})
		case 1:
			fe.LimitConcurrency(2)
			fe.SetAdmission(AdmissionConfig{JailWindow: 4 * time.Millisecond, JailLimit: 3})
		case 2:
			fe.SetAdmission(AdmissionConfig{JailWindow: 2 * time.Millisecond, JailLimit: 2})
		case 3:
			fe.LimitConcurrency(3)
		}
		fes = append(fes, fe)
		feRNGs = append(feRNGs, feRNG)
	}
	callers := []*netsim.Node{
		net.NewNode("c0", 0, netsim.Gbps(10)),
		net.NewNode("c1", 9, netsim.Gbps(10)),
		net.NewNode("c2", 10, netsim.Gbps(10)),
		fes[3].Node(),
	}
	for _, s := range pl.slow {
		k.At(s.at, func() { fes[s.fe].SetSlowdown(s.factor) })
	}
	var res equivResult
	sigs := make([]sim.Signal, equivSignals)
	running := len(pl.workers)
	for w, ops := range pl.workers {
		k.Spawn(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			defer func() { running-- }()
			for n, op := range ops {
				switch op.kind {
				case opTrip:
					fe := fes[op.fe]
					if fe.QueueDepth() > 0 {
						res.queued++
					}
					if op.d > 0 {
						res.extras++
					}
					err := trip(fe, p, callers[op.caller], op.d)
					res.trips = append(res.trips, equivTrip{w, n, p.Now(), err})
				case opSleep:
					p.Sleep(op.d)
				case opWait:
					sigs[op.sg].Wait(p)
				}
			}
		})
	}
	// The firer wakes signal waiters at random times until every worker
	// is done; its own stream is seeded alike in both worlds.
	fire := simrand.New(99)
	k.Spawn("firer", func(p *sim.Proc) {
		for running > 0 {
			p.Sleep(time.Duration(fire.Intn(2000)) * time.Microsecond)
			sigs[fire.Intn(equivSignals)].Fire()
		}
	})
	res.end = k.Run()
	res.sched = k.Sched()
	res.netDraw = netRNG.Uint64()
	for i, fe := range fes {
		st := fe.Stats()
		res.stats = append(res.stats, st)
		res.shed += st.Shed
		res.jailed += st.Jailed
		res.feDraws = append(res.feDraws, feRNGs[i].Uint64())
	}
	return res
}

// The stepped RoundTripErr is the blocking one, event for event: over
// randomized mixes of round trips (limited and unlimited frontends, shed,
// jail, extra service time, chaos slowdowns) and processes that also sleep
// and wait on signals between trips, both consume the same (at, seq)
// schedule, complete every trip at the same time with the same error, end
// with the same Stats and leave every RNG at the same next draw.
func TestRoundTripStepsMatchBlockingReference(t *testing.T) {
	var shed, jailed int64
	var queued, extras int
	for seed := uint64(1); seed <= 12; seed++ {
		pl := newEquivPlan(seed)
		ref := runEquiv(t, pl, refRoundTripErr)
		got := runEquiv(t, pl, (*Frontend).RoundTripErr)
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
		if len(got.trips) != len(ref.trips) {
			t.Fatalf("seed %d: %d trips completed, reference %d", seed, len(got.trips), len(ref.trips))
		}
		for i := range ref.trips {
			if got.trips[i] != ref.trips[i] {
				t.Fatalf("seed %d: trip %d is %+v, reference %+v", seed, i, got.trips[i], ref.trips[i])
			}
		}
		for i := range ref.stats {
			if got.stats[i] != ref.stats[i] || got.feDraws[i] != ref.feDraws[i] {
				t.Errorf("seed %d: frontend %d stats %+v next draw %x, reference %+v %x",
					seed, i, got.stats[i], got.feDraws[i], ref.stats[i], ref.feDraws[i])
			}
		}
		if got.netDraw != ref.netDraw {
			t.Errorf("seed %d: network next draw %x, reference %x", seed, got.netDraw, ref.netDraw)
		}
		shed += ref.shed
		jailed += ref.jailed
		queued += ref.queued
		extras += ref.extras
	}
	if shed == 0 || jailed == 0 || queued == 0 || extras == 0 {
		t.Errorf("the mixes never exercised a path: %d shed, %d jailed, %d trips found a queue, %d with extra",
			shed, jailed, queued, extras)
	}
}
