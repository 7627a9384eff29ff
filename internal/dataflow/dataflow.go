// Package dataflow implements §4's "Flexible Programming, Common IR" and
// "Fluid Code and Data Placement" proposals as a small data-centric DSL: a
// job is a pipeline of relational-ish operators (scan → map/filter →
// reduce) over partitioned data sets, compiled to a physical plan whose
// placement decisions — ship code to data, or ship data to code — are made
// by a cost model rather than hard-wired, exactly the optimization the
// paper says FaaS forecloses ("FaaS routinely ships data to code rather
// than shipping code to data").
//
// Execution runs on the future-platform's addressable agents. The planner
// is deliberately simple (one decision per stage, linear cost model), but
// it is a *real* planner: experiments can force either placement and
// measure the cost model's prediction against simulated execution.
package dataflow

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/future"
	"repro/internal/sim"
)

// Placement is where a stage's operator code runs.
type Placement int

// Placement choices.
const (
	// ShipCodeToData runs the operator on an agent co-located with the
	// partition, moving only the (usually small) operator output.
	ShipCodeToData Placement = iota
	// ShipDataToCode streams the partition to a remote agent — the
	// FaaS-style default the paper criticizes.
	ShipDataToCode
)

// String names the placement.
func (p Placement) String() string {
	if p == ShipCodeToData {
		return "code->data"
	}
	return "data->code"
}

// Op is one logical operator over a stream of records.
type Op struct {
	// Name labels the operator in plans.
	Name string
	// Selectivity is output bytes per input byte (1 = pass-through,
	// 0.01 = aggressive filter/aggregation, >1 = expansion).
	Selectivity float64
	// CostMBps is how fast one core crunches this operator's input.
	CostMBps float64
}

// Validate checks operator parameters.
func (o Op) Validate() error {
	if o.Name == "" {
		return errors.New("dataflow: operator needs a name")
	}
	if o.Selectivity < 0 {
		return fmt.Errorf("dataflow: %s: negative selectivity", o.Name)
	}
	if o.CostMBps <= 0 {
		return fmt.Errorf("dataflow: %s: non-positive cost rate", o.Name)
	}
	return nil
}

// Job is a logical pipeline over one partitioned input.
type Job struct {
	// Input is the partitioned data set to scan.
	Input *future.DataSet
	// Partitions lists the extent keys to process.
	Partitions []string
	// Ops is the operator pipeline applied to every partition.
	Ops []Op
}

// Validate checks the job.
func (j *Job) Validate() error {
	if j.Input == nil {
		return errors.New("dataflow: job needs an input data set")
	}
	if len(j.Partitions) == 0 {
		return errors.New("dataflow: job needs partitions")
	}
	if len(j.Ops) == 0 {
		return errors.New("dataflow: job needs at least one operator")
	}
	for _, op := range j.Ops {
		if err := op.Validate(); err != nil {
			return err
		}
	}
	for _, p := range j.Partitions {
		if _, ok := j.Input.Extent(p); !ok {
			return fmt.Errorf("dataflow: unknown partition %q", p)
		}
	}
	return nil
}

// PhysicalPlan is one placement decision per partition pipeline.
type PhysicalPlan struct {
	Job       *Job
	Placement Placement
	// PredictedSeconds is the cost model's per-partition estimate.
	PredictedSeconds float64
}

// The rates the planner costs against, those of the future-platform the
// executor runs on.
const (
	// localReadMBps is co-located read throughput.
	localReadMBps = float64(future.LocalReadBps) / 1e6
	// networkMBps is the effective partition-streaming throughput to a
	// remote agent.
	networkMBps = float64(future.AgentNICBps) / 1e6
	// codeShipSeconds is the one-time cost of placing code next to data,
	// the mean placement delay (amortized per partition by the planner).
	codeShipSeconds = float64(future.PlacementLo+future.PlacementHi) / 2 / float64(time.Second)
)

// costOf predicts per-partition seconds under a placement.
func costOf(j *Job, pl Placement, partitionBytes float64) float64 {
	mb := partitionBytes / 1e6
	var secs float64
	switch pl {
	case ShipCodeToData:
		secs = mb / localReadMBps
		secs += codeShipSeconds / float64(len(j.Partitions))
	case ShipDataToCode:
		secs = mb / networkMBps
	}
	// Operator chain: each op crunches its input then shrinks it.
	cur := mb
	for _, op := range j.Ops {
		secs += cur / op.CostMBps
		cur *= op.Selectivity
	}
	// Result shipping: only the final output moves for code->data;
	// for data->code the result is already where the code is.
	if pl == ShipCodeToData && cur > 0 {
		secs += cur / networkMBps
	}
	return secs
}

// Plan picks the cheaper placement for the job. It returns the plan plus
// both predictions so callers can inspect the margin.
func Plan(j *Job) (*PhysicalPlan, map[Placement]float64, error) {
	if err := j.Validate(); err != nil {
		return nil, nil, err
	}
	var avg float64
	for _, p := range j.Partitions {
		size, _ := j.Input.Extent(p)
		avg += float64(size)
	}
	avg /= float64(len(j.Partitions))

	costs := map[Placement]float64{
		ShipCodeToData: costOf(j, ShipCodeToData, avg),
		ShipDataToCode: costOf(j, ShipDataToCode, avg),
	}
	pl := ShipCodeToData
	if costs[ShipDataToCode] < costs[ShipCodeToData] {
		pl = ShipDataToCode
	}
	return &PhysicalPlan{Job: j, Placement: pl, PredictedSeconds: costs[pl]}, costs, nil
}

// Result summarizes one executed job. Elapsed is the makespan, up to the
// last partition's first completion. Without spares the straggler counts
// stay 0; with them they count partitions named, rescue copies started and
// rescue copies that finished first. DecodeOK is false if any decode of
// the straggler tracker failed to peel.
type Result struct {
	Placement                         Placement
	Partitions                        int
	Elapsed                           time.Duration
	OutputBytes                       int64
	PredictedSeconds                  float64
	Stragglers, Redispatched, Rescued int
	DecodeOK                          bool
}

// Executor runs physical plans on a future-platform.
type Executor struct {
	pf   *future.Platform
	runs int // distinguishes agent names across Execute calls
}

// NewExecutor binds an executor to the platform.
func NewExecutor(pf *future.Platform) *Executor {
	return &Executor{pf: pf}
}

// execution is one Execute call's shared state. Every process it starts
// joins wg, which Execute waits on, so none outlives the call.
type execution struct {
	ex      *Executor
	plan    *PhysicalPlan
	run     int
	near    *future.DataSet // where agents are placed; nil = anywhere
	start   sim.Time
	wg      sim.WaitGroup
	tracker *StragglerTracker
	done    []bool     // by 1-based partition id
	sent    []sim.Time // dispatch time, by 1-based partition id
	left    int        // partitions not yet completed
	err     error
	res     Result
}

// Execute runs the plan with `workers` parallel agents, blocking the
// calling process until every partition is processed. Primary workers
// drain a queue of partitions, slowed per pol.Slow; with pol.Spares > 0 a
// coordinator also re-dispatches named stragglers to spare agents (see
// straggler.go). The zero policy runs every worker at full speed and
// rescues nothing.
func (ex *Executor) Execute(p *sim.Proc, plan *PhysicalPlan, workers int, pol StragglerPolicy) (*Result, error) {
	if err := plan.Job.Validate(); err != nil {
		return nil, err
	}
	parts := plan.Job.Partitions
	workers = min(max(workers, 1), len(parts))
	ex.runs++
	r := &execution{ex: ex, plan: plan, run: ex.runs, start: p.Now(), left: len(parts),
		tracker: NewStragglerTracker(trackerCells), done: make([]bool, len(parts)+1),
		sent: make([]sim.Time, len(parts)+1),
		res: Result{Placement: plan.Placement, Partitions: len(parts),
			PredictedSeconds: plan.PredictedSeconds, DecodeOK: true}}
	if plan.Placement == ShipCodeToData {
		r.near = plan.Job.Input
	}

	// Work queue over 1-based partition ids.
	work := sim.NewQueue[uint64]()
	for i := range parts {
		work.Put(uint64(i + 1))
	}
	work.Close()

	for w := 0; w < workers; w++ {
		slow := 1.0
		if pol.Slow != nil {
			if f := pol.Slow(w); f > 1 {
				slow = f
			}
		}
		r.spawn(p, fmt.Sprintf("df-run%d-worker%d", r.run, w), func(wp *sim.Proc, agent *future.Agent) {
			for {
				id, ok := work.Get(wp)
				if !ok {
					return
				}
				r.tracker.Dispatch(id)
				r.sent[id] = wp.Now()
				if _, err := r.partition(wp, agent, id, slow); err != nil {
					if r.err == nil {
						r.err = err
					}
					return
				}
			}
		})
	}
	if pol.Spares > 0 {
		r.wg.Add(1)
		p.Spawn(fmt.Sprintf("df-run%d-coord", r.run), func(cp *sim.Proc) {
			defer r.wg.Done()
			r.coordinate(cp, work, pol)
		})
	}
	r.wg.Wait(p)
	if r.err != nil {
		return nil, r.err
	}
	return &r.res, nil
}

// spawn starts a process on p that runs body on its own agent.
func (r *execution) spawn(p *sim.Proc, name string, body func(*sim.Proc, *future.Agent)) {
	r.wg.Add(1)
	p.Spawn(name, func(ap *sim.Proc) {
		defer r.wg.Done()
		agent := r.ex.pf.SpawnAgent(ap, name, 1024, r.near)
		defer agent.Stop(ap)
		body(ap, agent)
	})
}

// partition reads partition id, runs the operator chain on a host slowed
// by factor slow (1 = full speed), ships the reduced result if code ran at
// the data, and records the completion unless a twin finished first. first
// reports whether this copy's completion counted.
func (r *execution) partition(p *sim.Proc, agent *future.Agent, id uint64, slow float64) (first bool, err error) {
	job := r.plan.Job
	part := job.Partitions[id-1]
	size, _ := job.Input.Extent(part)
	if err = agent.Read(p, job.Input, part); err != nil {
		return false, err
	}
	// Operator chain: each op crunches its input then shrinks it.
	cur := float64(size)
	for _, op := range job.Ops {
		secs := cur / (op.CostMBps / slow * 1e6)
		p.Sleep(time.Duration(secs * float64(time.Second)))
		cur *= op.Selectivity
	}
	out := int64(cur)
	if r.near != nil && out > 0 {
		secs := float64(out) / (networkMBps * 1e6)
		p.Sleep(time.Duration(secs * float64(time.Second)))
	}
	if r.done[id] {
		return false, nil // a twin (primary or rescue) got here first
	}
	r.done[id] = true
	r.tracker.Complete(id)
	r.res.OutputBytes += out
	if r.left--; r.left == 0 {
		r.res.Elapsed = time.Duration(p.Now() - r.start)
	}
	return true, nil
}
