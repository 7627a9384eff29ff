package resilience

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// doShape is one workload FuzzDoStep runs both ways: a policy, the
// callers sharing its budget, breaker and stats sink, and the outcomes of
// the attempts in the order they start.
type doShape struct {
	cfg      Config
	budget   bool
	breaker  bool
	endpoint int
	callers  int
	calls    int           // per caller
	gap      time.Duration // a caller's think before each call
	ops      []opOutcome
}

// opOutcome is one attempt's latency and result.
type opOutcome struct {
	lat  time.Duration
	fail bool
}

// decodeShape reads a shape from fuzz bytes; missing bytes read as zero.
// Bytes 0-8 set the policy and the callers, and each later byte is one
// attempt: bit 7 fails it, bits 0-6 are its latency in 2 ms units.
func decodeShape(data []byte) doShape {
	b := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	ms := time.Millisecond
	s := doShape{
		cfg: Config{
			Attempts:    1 + int(b(0)%4),
			Deadline:    time.Duration(b(1)%64) * 5 * ms,
			BaseBackoff: time.Duration(b(2)%32) * ms,
			MaxBackoff:  time.Duration(b(3)%128) * ms,
			HedgeAfter:  time.Duration(b(4)%64) * 2 * ms,
		},
		budget:   b(5)&1 != 0,
		breaker:  b(5)&2 != 0,
		endpoint: 0,
		callers:  1 + int(b(6)%4),
		calls:    1 + int(b(7)%16),
		gap:      time.Duration(b(8)%32) * ms,
	}
	if b(5)&4 != 0 {
		s.endpoint = -1
	}
	for _, x := range data[min(len(data), 9):] {
		s.ops = append(s.ops, opOutcome{lat: time.Duration(x&0x7f) * 2 * ms, fail: x&0x80 != 0})
	}
	if len(s.ops) == 0 {
		s.ops = []opOutcome{{lat: 2 * ms}}
	}
	return s
}

// doResult is everything the two implementations must agree on.
type doResult struct {
	sched sim.Sched
	calls [][]string // per caller: each call's end time and outcome
	stats Stats
	trips int64
	draws []uint64 // each client's next backoff draw
}

// runShape runs s with the blocking reference (stepped false) or with
// DoStep. Each caller thinks, calls, records the outcome and thinks again;
// the attempts take their outcomes from s.ops in the order they start.
func runShape(s doShape, stepped bool) doResult {
	k := sim.NewKernel()
	defer k.Close()
	rng := simrand.New(7)
	var budget *Budget
	if s.budget {
		budget = NewBudget(0.2, 2)
	}
	var brs []*Breaker
	if s.breaker {
		brs = []*Breaker{NewBreaker(BreakerConfig{Window: 8, MinSamples: 4,
			FailureRate: 0.5, Cooldown: 40 * time.Millisecond, HalfOpenProbes: 1})}
	}
	var sink Stats
	res := doResult{calls: make([][]string, s.callers)}
	started := 0
	next := func() (time.Duration, error) {
		o := s.ops[started%len(s.ops)]
		started++
		if o.fail {
			return o.lat, errBoom
		}
		return o.lat, nil
	}
	rngs := make([]*simrand.RNG, s.callers)
	for i := range rngs {
		rngs[i] = rng.Fork()
		record := func(p *sim.Proc, err error) {
			res.calls[i] = append(res.calls[i], fmt.Sprintf("%v %v", p.Now(), err))
		}
		if !stepped {
			c := newRefClient(k, rngs[i], s.cfg, budget, brs, &sink)
			op := func(q *sim.Proc) error {
				lat, err := next()
				q.Sleep(lat)
				return err
			}
			k.Spawn("caller", func(p *sim.Proc) {
				for n := 0; n < s.calls; n++ {
					p.Sleep(s.gap)
					record(p, c.Do(p, s.endpoint, op))
				}
			})
			continue
		}
		c := NewClient(k, rngs[i], s.cfg)
		c.SetBudget(budget)
		c.SetBreakers(brs)
		c.SetStatsSink(&sink)
		op := func(q *sim.Proc) {
			lat, err := next()
			q.WakeAfter(lat, func(q *sim.Proc) { c.Done(q, err) })
		}
		n := 0
		var call func(*sim.Proc)
		then := func(p *sim.Proc, err error) {
			record(p, err)
			if n++; n == s.calls {
				p.Exit()
				return
			}
			p.WakeAfter(s.gap, call)
		}
		call = func(p *sim.Proc) { c.DoStep(p, s.endpoint, op, then) }
		k.SpawnStep("caller", func(p *sim.Proc) { p.WakeAfter(s.gap, call) })
	}
	k.Run()
	res.sched = k.Sched()
	res.stats = sink
	for _, br := range brs {
		res.trips += br.Trips()
	}
	for _, r := range rngs {
		res.draws = append(res.draws, r.Uint64())
	}
	return res
}

// FuzzDoStep holds DoStep to the blocking retry loop it replaced, event
// for event: the same schedule hash, each call's outcome and end time, the
// same counters and breaker trips, and the same backoff draws, for any
// policy, any number of callers sharing it and any attempt outcomes. The
// stepped run resumes no coroutine. The seed corpus is the shapes of the
// package's client tests, plus a storm of callers sharing every mechanism.
func FuzzDoStep(f *testing.F) {
	for _, seed := range [][]byte{
		{0, 0, 0, 0, 0, 0, 0, 1, 0, 0x01, 0x80},                    // pass-through, two calls
		{3, 0, 10, 0, 0, 0, 0, 0, 0, 0x80, 0x80, 0x00},             // retries until success
		{0, 10, 0, 0, 0, 0, 0, 0, 0, 0x7f},                         // deadline abandons a slow op
		{0, 2, 0, 0, 0, 0, 0, 1, 0, 25},                            // abandoned attempts outlive calls
		{1, 2, 0, 0, 0, 0, 0, 0, 0, 7, 10},                         // one ends inside the next attempt
		{0, 10, 0, 0, 0, 0, 0, 2, 0, 1},                            // deadline stopped on fast success
		{0, 0, 0, 0, 10, 0, 0, 0, 0, 0x7f, 3},                      // the hedge wins
		{0, 0, 0, 0, 10, 0, 0, 0, 0, 1},                            // no hedge for a fast primary
		{2, 0, 0, 0, 0, 1, 0, 15, 0, 0x80},                         // the budget caps retries
		{1, 0, 0, 0, 0, 2, 0, 4, 0, 0x80},                          // an open breaker short-circuits
		{2, 2, 1, 1, 0, 3, 0, 7, 0, 0x80, 0x00},                    // the decision benchmark's cycle
		{3, 6, 5, 40, 5, 3, 3, 7, 3, 40, 0x85, 2, 20, 0x81, 60, 3}, // a storm
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeShape(data)
		ref, got := runShape(s, false), runShape(s, true)
		if got.sched.Hash != ref.sched.Hash {
			t.Errorf("schedule hash %#x, blocking loop's %#x", got.sched.Hash, ref.sched.Hash)
		}
		if got.sched.Resumes != 0 {
			t.Errorf("stepped run resumed coroutines %d times", got.sched.Resumes)
		}
		if g, r := fmt.Sprint(got.calls), fmt.Sprint(ref.calls); g != r {
			t.Errorf("calls ended\n%s\nblocking loop's\n%s", g, r)
		}
		if got.stats != ref.stats || got.trips != ref.trips {
			t.Errorf("stats %+v with %d trips, blocking loop's %+v with %d", got.stats, got.trips, ref.stats, ref.trips)
		}
		if fmt.Sprint(got.draws) != fmt.Sprint(ref.draws) {
			t.Errorf("next backoff draws %v, blocking loop's %v", got.draws, ref.draws)
		}
		if t.Failed() {
			t.Logf("shape %+v", s)
		}
	})
}
