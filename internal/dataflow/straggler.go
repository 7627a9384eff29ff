package dataflow

// Straggler detection and re-dispatch. The coordinator tracks outstanding
// partitions with an invertible Bloom filter (the same primitive
// internal/recon uses for gossip): Dispatch folds a partition id in,
// Complete folds it out, and when progress stalls the coordinator decodes
// the filter against an empty one to *name* exactly the unfinished
// partitions — a constant-size summary instead of an O(partitions)
// scoreboard, the Eppstein–Goodrich trick applied to task tracking. Named
// stragglers are re-dispatched to spare agents; the first completion wins
// and duplicates are ignored, mirroring speculative execution in
// MapReduce-style runtimes.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/future"
	"repro/internal/recon"
	"repro/internal/sim"
)

// StragglerTracker names unfinished work from a constant-size IBF summary.
type StragglerTracker struct {
	filter      *recon.Filter
	empty       *recon.Filter
	dec         recon.Decoder
	outstanding int
	scratch     []uint64
}

// NewStragglerTracker sizes the tracker for decoding up to ~cells/1.4
// simultaneous stragglers (the usual IBF decode margin).
func NewStragglerTracker(cells int) *StragglerTracker {
	return &StragglerTracker{filter: recon.New(cells), empty: recon.New(cells)}
}

// Dispatch records that partition id (1-based) is in flight.
func (st *StragglerTracker) Dispatch(id uint64) {
	st.filter.Add(recon.Mix(id))
	st.outstanding++
}

// Complete records that partition id finished.
func (st *StragglerTracker) Complete(id uint64) {
	st.filter.Remove(recon.Mix(id))
	st.outstanding--
}

// Outstanding counts in-flight partitions.
func (st *StragglerTracker) Outstanding() int { return st.outstanding }

// Identify decodes the summary into the sorted list of mixed in-flight
// elements (mixedID of each outstanding partition id). ok is false when
// the outstanding set outgrew the filter's decode capacity — callers fall
// back to waiting (the set only shrinks).
func (st *StragglerTracker) Identify() (ids []uint64, ok bool) {
	only, _, ok := st.dec.Decode(st.filter, st.empty)
	if !ok {
		return nil, false
	}
	st.scratch = append(st.scratch[:0], only...)
	slices.Sort(st.scratch)
	return st.scratch, true
}

// mixedID returns the element Identify reports for partition id.
func mixedID(id uint64) uint64 { return recon.Mix(id) }

// trackerCells sizes ExecuteResilient's straggler-tracker IBF.
const trackerCells = 64

// StragglerPolicy configures re-dispatch for ExecuteResilient.
type StragglerPolicy struct {
	// Patience is the coordinator's poll interval: once the work queue is
	// drained, any partition still outstanding after a full patience window
	// is declared a straggler.
	Patience time.Duration
	// Spares is how many rescue agents re-dispatch uses (0 disables rescue
	// — the baseline that just waits for stragglers).
	Spares int
	// Slow returns the compute slowdown factor for a primary worker index
	// (nil or 1 = full speed). Rescue agents always run at full speed.
	Slow func(worker int) float64
}

// RedispatchReport describes what straggler handling did.
type RedispatchReport struct {
	// Stragglers is how many partitions were ever declared stragglers.
	Stragglers int
	// DecodeOK is false if any Identify call failed to peel (wait fallback).
	DecodeOK bool
	// Redispatched counts rescue attempts started.
	Redispatched int
	// Rescued counts partitions whose rescue copy finished first.
	Rescued int
}

// ExecuteResilient runs the plan like Execute but with IBF-based straggler
// re-dispatch: primary workers (optionally slowed per the policy) process
// the queue; once it drains, the coordinator polls every Patience and
// re-dispatches still-outstanding partitions to spare full-speed agents.
// First completion wins; duplicates are dropped before the tracker.
func (ex *Executor) ExecuteResilient(p *sim.Proc, plan *Plan, workers int, pol StragglerPolicy) (*Result, *RedispatchReport, error) {
	if err := plan.Job.Validate(); err != nil {
		return nil, nil, err
	}
	if workers <= 0 {
		workers = 1
	}
	if pol.Patience <= 0 {
		pol.Patience = 500 * time.Millisecond
	}
	start := p.Now()
	parts := plan.Job.Partitions
	tracker := NewStragglerTracker(trackerCells)
	rep := &RedispatchReport{DecodeOK: true}

	// Partition ids are 1-based queue order; id→key for rescue dispatch.
	byID := make(map[uint64]string, len(parts))
	byMixed := make(map[uint64]uint64, len(parts))
	for i, part := range parts {
		id := uint64(i + 1)
		byID[id] = part
		byMixed[mixedID(id)] = id
	}

	work := sim.NewQueue[uint64](0)
	for i := range parts {
		work.TryPut(uint64(i + 1))
	}
	work.Close()

	done := make(map[uint64]bool, len(parts))
	var outputBytes int64
	var firstErr error
	finish := func(id uint64, out int64) {
		if done[id] {
			return // a twin (primary or rescue) got here first
		}
		done[id] = true
		tracker.Complete(id)
		outputBytes += out
	}
	runPart := func(wp *sim.Proc, agent *future.Agent, id uint64, slow float64) (int64, error) {
		part := byID[id]
		size, _ := plan.Job.Input.Extent(part)
		if err := agent.Read(wp, plan.Job.Input, part); err != nil {
			return 0, err
		}
		if slow > 1 {
			// A slowed host crunches operators slower by the same factor.
			slowOps := make([]Op, len(plan.Job.Ops))
			for i, op := range plan.Job.Ops {
				op.CostMBps /= slow
				slowOps[i] = op
			}
			return runOps(wp, slowOps, size), nil
		}
		return runOps(wp, plan.Job.Ops, size), nil
	}

	ex.runs++
	run := ex.runs
	var wg sim.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		slow := 1.0
		if pol.Slow != nil {
			if f := pol.Slow(w); f > 0 {
				slow = f
			}
		}
		name := fmt.Sprintf("df-run%d-worker%d", run, w)
		p.Spawn(name, func(wp *sim.Proc) {
			defer wg.Done()
			var near *future.DataSet
			if plan.Placement == ShipCodeToData {
				near = plan.Job.Input
			}
			agent := ex.pf.SpawnAgent(wp, name, 1024, near)
			defer agent.Stop(wp)
			for {
				id, ok := work.Get(wp)
				if !ok {
					return
				}
				tracker.Dispatch(id)
				out, err := runPart(wp, agent, id, slow)
				if err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
				finish(id, out)
			}
		})
	}

	// Coordinator: wait for the queue to drain, then poll. Anything still
	// outstanding after a full patience window gets one rescue copy.
	rescued := make(map[uint64]bool)
	coord := func(cp *sim.Proc) {
		spare := 0
		var rescueWG sim.WaitGroup
		for tracker.Outstanding() > 0 || work.Len() > 0 {
			cp.Sleep(pol.Patience)
			if firstErr != nil {
				break
			}
			if work.Len() > 0 || tracker.Outstanding() == 0 || pol.Spares == 0 {
				continue
			}
			ids, ok := tracker.Identify()
			if !ok {
				rep.DecodeOK = false
				continue
			}
			for _, el := range ids {
				id := byMixed[el]
				if id == 0 || rescued[id] {
					continue
				}
				rescued[id] = true
				rep.Stragglers++
				if rep.Redispatched >= pol.Spares*4 {
					continue // budget: each spare handles a few rescues
				}
				rep.Redispatched++
				spare++
				rescueWG.Add(1)
				rname := fmt.Sprintf("df-run%d-rescue%d", run, spare)
				rid := id
				cp.Spawn(rname, func(rp *sim.Proc) {
					defer rescueWG.Done()
					var near *future.DataSet
					if plan.Placement == ShipCodeToData {
						near = plan.Job.Input
					}
					agent := ex.pf.SpawnAgent(rp, rname, 1024, near)
					defer agent.Stop(rp)
					out, err := runPart(rp, agent, rid, 1)
					if err != nil {
						return // rescue failure is benign; primary still runs
					}
					if !done[rid] {
						rep.Rescued++
						finish(rid, out)
					}
				})
			}
		}
		rescueWG.Wait(cp)
	}

	var coordWG sim.WaitGroup
	coordWG.Add(1)
	p.Spawn(fmt.Sprintf("df-run%d-coord", run), func(cp *sim.Proc) {
		defer coordWG.Done()
		coord(cp)
	})

	// The job is complete when every partition is done — rescues can beat
	// primaries, so waiting on the workers alone would overshoot makespan.
	for len(done) < len(parts) && firstErr == nil {
		p.Sleep(pol.Patience / 4)
	}
	elapsed := time.Duration(p.Now() - start)
	wg.Wait(p)
	coordWG.Wait(p)
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return &Result{
		Placement:        plan.Placement,
		Partitions:       len(parts),
		Elapsed:          elapsed,
		OutputBytes:      outputBytes,
		PredictedSeconds: plan.PredictedSeconds,
	}, rep, nil
}
