// Package workflow implements §2's third design pattern: function
// composition — multi-step applications built as event-driven chains of
// FaaS functions stitched together with queues and object-store state,
// modeled on the Autodesk account-creation case study the paper cites
// (average end-to-end sign-up time: ten minutes).
//
// Each step is a registered function fed by its own queue through an
// event-source mapping; steps persist state to the object store because
// function instances cannot hold it. The per-step overhead (queue hops,
// invocation overhead, storage round trips) is the quantity experiment E8
// measures.
package workflow

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/faas"
	"repro/internal/netsim"
	"repro/internal/objectstore"
	"repro/internal/queue"
	"repro/internal/sim"
)

// ErrNotDeployed is returned by Submit before Deploy.
var ErrNotDeployed = errors.New("workflow: pipeline not deployed")

// Step is one stage of a pipeline.
type Step struct {
	// Name labels the step's function and queue.
	Name string
	// MemoryMB sizes the step's function (default 256).
	MemoryMB int
	// Work transforms the step's input. Nil passes data through.
	Work func(ctx *faas.Ctx, data []byte) ([]byte, error)
	// ReadsState makes the step fetch the previous step's persisted
	// state from the object store before Work.
	ReadsState bool
	// WritesState makes the step persist its output after Work.
	WritesState bool
}

// envelope carries one item through the pipeline.
type envelope struct {
	ID        int64  `json:"id"`
	Submitted int64  `json:"submitted"` // virtual nanos
	Data      []byte `json:"data"`
}

// Result is the outcome of one pipeline execution.
type Result struct {
	Output  []byte
	Latency time.Duration
}

// Pipeline is a deployed chain of steps.
type Pipeline struct {
	name  string
	pf    *faas.Platform
	qsvc  *queue.Service
	store *objectstore.Store
	steps []Step

	queues   []*queue.Queue
	doneQ    *queue.Queue
	mappings []*faas.EventSourceMapping
	pending  map[int64]*sim.Promise[Result]
	nextID   int64
	deployed bool
}

// New assembles (but does not deploy) a pipeline.
func New(name string, pf *faas.Platform, qsvc *queue.Service,
	store *objectstore.Store, steps []Step) *Pipeline {
	if len(steps) == 0 {
		panic("workflow: pipeline needs at least one step")
	}
	return &Pipeline{
		name:    name,
		pf:      pf,
		qsvc:    qsvc,
		store:   store,
		steps:   steps,
		pending: make(map[int64]*sim.Promise[Result]),
	}
}

// Steps reports the number of stages.
func (pl *Pipeline) Steps() int { return len(pl.steps) }

func (pl *Pipeline) queueName(i int) string {
	return fmt.Sprintf("%s-q%02d-%s", pl.name, i, pl.steps[i].Name)
}

func (pl *Pipeline) stateKey(id int64, step int) string {
	return fmt.Sprintf("wf/%s/%d/step-%02d", pl.name, id, step)
}

// Deploy registers every step's function, creates the queues, and starts
// the event-source mappings. The collector process that resolves Submit
// promises runs on k until the pipeline is stopped.
func (pl *Pipeline) Deploy(k *sim.Kernel) error {
	if pl.deployed {
		return nil
	}
	for i := range pl.steps {
		pl.queues = append(pl.queues, pl.qsvc.CreateQueue(pl.queueName(i), 2*time.Minute))
	}
	pl.doneQ = pl.qsvc.CreateQueue(pl.name+"-done", 2*time.Minute)

	for i := range pl.steps {
		i := i
		step := pl.steps[i]
		mem := step.MemoryMB
		if mem == 0 {
			mem = 256
		}
		fnName := fmt.Sprintf("%s-%s", pl.name, step.Name)
		err := pl.pf.Register(faas.Function{
			Name:     fnName,
			MemoryMB: mem,
			Timeout:  time.Minute,
			Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
				return nil, pl.runStep(ctx, i, payload)
			},
		})
		if err != nil {
			return fmt.Errorf("workflow: register %s: %w", fnName, err)
		}
		pl.mappings = append(pl.mappings, pl.pf.MapQueue(pl.queues[i], fnName, 10))
	}

	k.Spawn(pl.name+"/collector", pl.collect)
	pl.deployed = true
	return nil
}

// runStep executes step i's logic for every record in an SQS event.
func (pl *Pipeline) runStep(ctx *faas.Ctx, i int, payload []byte) error {
	step := pl.steps[i]
	for body, err := range faas.SQSBodies(payload) {
		if err != nil {
			return err
		}
		var env envelope
		if err := json.Unmarshal(body, &env); err != nil {
			return fmt.Errorf("workflow: step %d envelope: %w", i, err)
		}
		// Functions are stateless: prior state must come from storage.
		if step.ReadsState && i > 0 {
			if _, err := pl.store.Get(ctx.Proc(), ctx.Node(), pl.stateKey(env.ID, i-1)); err != nil {
				return fmt.Errorf("workflow: step %d state read: %w", i, err)
			}
		}
		if step.Work != nil {
			out, err := step.Work(ctx, env.Data)
			if err != nil {
				return fmt.Errorf("workflow: step %s: %w", step.Name, err)
			}
			env.Data = out
		}
		if step.WritesState {
			pl.store.Put(ctx.Proc(), ctx.Node(), pl.stateKey(env.ID, i), env.Data)
		}
		next := pl.doneQ
		if i+1 < len(pl.steps) {
			next = pl.queues[i+1]
		}
		out, _ := json.Marshal(env)
		if _, err := next.Send(ctx.Proc(), ctx.Node(), out); err != nil {
			return err
		}
	}
	return nil
}

// collect resolves Submit promises as finished envelopes arrive.
func (pl *Pipeline) collect(p *sim.Proc) {
	caller := pl.store.Node() // collector runs near the services
	for {
		msgs, err := pl.doneQ.Receive(p, caller, nil, 10, time.Second)
		if err != nil {
			return
		}
		for _, m := range msgs {
			var env envelope
			if json.Unmarshal(m.Body, &env) != nil {
				continue
			}
			pl.doneQ.Delete(p, caller, m.Receipt)
			if pr, ok := pl.pending[env.ID]; ok {
				delete(pl.pending, env.ID)
				pr.Resolve(Result{
					Output:  env.Data,
					Latency: time.Duration(p.Now() - sim.Time(env.Submitted)),
				})
			}
		}
	}
}

// Submit enqueues one item and returns a promise for its completion.
func (pl *Pipeline) Submit(p *sim.Proc, caller *netsim.Node, data []byte) (*sim.Promise[Result], error) {
	if !pl.deployed {
		return nil, ErrNotDeployed
	}
	pl.nextID++
	env := envelope{ID: pl.nextID, Submitted: int64(p.Now()), Data: data}
	body, _ := json.Marshal(env)
	pr := &sim.Promise[Result]{}
	pl.pending[env.ID] = pr
	if _, err := pl.queues[0].Send(p, caller, body); err != nil {
		delete(pl.pending, env.ID)
		return nil, err
	}
	return pr, nil
}

// Stop halts the event-source mappings (the collector parks idle).
func (pl *Pipeline) Stop() {
	for _, m := range pl.mappings {
		m.Stop()
	}
}
