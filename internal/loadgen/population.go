package loadgen

import (
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// Population drives the load of N independent Poisson clients from a single
// generator process — the aggregated mode that makes million-user runs
// feasible. It relies on Poisson superposition: N clients at rate r each
// are statistically one Poisson stream at rate N·r whose arrivals are
// assigned to clients by i.i.d. thinning, so the generator draws one gap
// stream at the aggregate rate instead of running one process per client.
//
// Arrival times come from the same gap formula as Poisson.Next, so a
// Population sharing a gap RNG seed with a per-arrival Generator at the
// aggregate rate produces bit-identical arrival times — the equivalence the
// randomized suite pins. Submission fans out over a fixed pool of MaxProcs
// worker processes (the fan-out budget) fed in 10 ms windows, rather than
// one fresh process per arrival.
type Population struct {
	gapRNG  *simrand.RNG
	thinRNG *simrand.RNG
	clients int
	ratePer float64

	// Submitted counts requests issued (arrivals inside the window).
	Submitted int
	// Late counts requests submitted after their arrival time because the
	// MaxProcs budget was exhausted; a non-trivial share means the budget
	// is distorting the open loop and should be raised.
	Late int
}

const (
	// MaxProcs caps a Population's submission fan-out: at most this many
	// requests are in flight at once. When all workers are busy past an
	// arrival's time, the request still submits — late, counted in Late —
	// so the budget bounds memory, not the workload.
	MaxProcs = 2048
	// popBatch is how far ahead the generator materializes arrivals per
	// emission round. Smaller batches bound queue memory; larger ones
	// amortize generator wakeups.
	popBatch = 10 * time.Millisecond
)

// popArrival is one thinned arrival: its absolute time, global sequence
// number, and assigned client.
type popArrival struct {
	at     sim.Time
	seq    int
	client int
}

// NewPopulation creates an aggregated population of clients, each a Poisson
// source at ratePerClient req/s. The two RNGs keep the streams aligned with
// the per-arrival mode: gapRNG drives inter-arrival gaps exactly as a
// Generator over Poisson{Rate: clients·ratePerClient} would consume it, and
// thinRNG independently assigns each arrival to a client, uniformly.
func NewPopulation(gapRNG, thinRNG *simrand.RNG, clients int, ratePerClient float64) *Population {
	if clients <= 0 {
		panic("loadgen: population needs at least one client")
	}
	if ratePerClient <= 0 {
		panic("loadgen: non-positive per-client rate")
	}
	return &Population{gapRNG: gapRNG, thinRNG: thinRNG, clients: clients, ratePer: ratePerClient}
}

// Run spawns the aggregated generation loop on k for `for_` of virtual
// time, calling submit(p, seq, client) once per arrival from a pool of
// MaxProcs worker processes. Sequence numbers follow arrival order. It
// returns a latch that releases when the generation window ends, matching
// Generator.Run's contract (in-flight requests may still be running).
func (pop *Population) Run(k *sim.Kernel, for_ time.Duration, submit func(p *sim.Proc, seq, client int)) *sim.Latch {
	rate := pop.ratePer * float64(pop.clients)
	q := sim.NewQueue[popArrival]() // popBatch bounds its depth
	doneGen := &sim.Latch{}

	for w := 0; w < MaxProcs; w++ {
		k.Spawn("popworker", func(wp *sim.Proc) {
			for {
				a, ok := q.Get(wp)
				if !ok {
					return
				}
				if a.at > wp.Now() {
					wp.Sleep(a.at - wp.Now())
				} else if a.at < wp.Now() {
					pop.Late++
				}
				submit(wp, a.seq, a.client)
			}
		})
	}

	k.Spawn("popgen", func(p *sim.Proc) {
		gap := func() sim.Time {
			// Identical arithmetic to Poisson.Next so the gap stream is
			// bit-compatible with the per-arrival mode.
			return sim.Time(pop.gapRNG.ExpFloat64() / rate * float64(time.Second))
		}
		end := p.Now() + sim.Time(for_)
		next := p.Now() + gap()
		seq := 0
		for next < end {
			bend := p.Now() + sim.Time(popBatch)
			if bend > end {
				bend = end
			}
			for next < bend {
				q.Put(popArrival{at: next, seq: seq, client: pop.thinRNG.Intn(pop.clients)})
				seq++
				pop.Submitted++
				next += gap()
			}
			p.Sleep(bend - p.Now())
		}
		// Same promise as Generator.Run: the latch marks the end of the
		// generation window, not the last arrival.
		p.Sleep(end - p.Now())
		q.Close()
		doneGen.Release()
	})
	return doneGen
}
