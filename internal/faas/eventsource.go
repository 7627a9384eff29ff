package faas

import (
	"fmt"
	"time"

	"repro/internal/queue"
	"repro/internal/sim"
)

// SQSRecord is one message in an SQS-triggered invocation payload.
type SQSRecord struct {
	MessageID string `json:"messageId"`
	Receipt   string `json:"receiptHandle"`
	Body      string `json:"body"`
}

// SQSEvent is the payload shape delivered to SQS-triggered functions.
// EncodeSQSEvent and DecodeSQSEvent (sqsjson.go) convert between message
// batches and payload bytes.
type SQSEvent struct {
	Records []SQSRecord `json:"records"`
}

// EventSourceMapping is a poller fleet that drains an SQS queue into a
// function, modeling Lambda's SQS trigger: each poller long-polls the
// queue, pushes its batch through the mapping pipeline, invokes
// synchronously, and deletes the batch only on success (failures reappear
// after the visibility timeout).
type EventSourceMapping struct {
	pf        *Platform
	q         *queue.Queue
	fnName    string
	batchSize int
	pollers   int
	stopped   bool
	idleWait  time.Duration
}

// MapQueue starts an event-source mapping from q to the named function with
// a single poller. batchSize is capped at the queue's 10-message limit.
func (pf *Platform) MapQueue(q *queue.Queue, fnName string, batchSize int) *EventSourceMapping {
	return pf.MapQueueN(q, fnName, batchSize, 1)
}

// MapQueueN starts an event-source mapping with n parallel pollers, the way
// Lambda's SQS event source runs a poller fleet: each poller carries at
// most one in-flight invocation, so n bounds the mapping's concurrency the
// way Lambda's "maximum concurrency" setting does.
func (pf *Platform) MapQueueN(q *queue.Queue, fnName string, batchSize, n int) *EventSourceMapping {
	if batchSize <= 0 || batchSize > queue.MaxBatch {
		batchSize = queue.MaxBatch
	}
	if n < 1 {
		n = 1
	}
	esm := &EventSourceMapping{
		pf:        pf,
		q:         q,
		fnName:    fnName,
		batchSize: batchSize,
		pollers:   n,
		idleWait:  time.Second,
	}
	for i := 0; i < n; i++ {
		pf.net.Kernel().Spawn(fmt.Sprintf("esm/%s/%d", fnName, i), esm.run)
	}
	return esm
}

// Pollers reports the size of the mapping's poller fleet.
func (e *EventSourceMapping) Pollers() int { return e.pollers }

// Stop halts every poller after its current cycle.
func (e *EventSourceMapping) Stop() { e.stopped = true }

func (e *EventSourceMapping) run(p *sim.Proc) {
	var receipts []string // reused across the poller's batches
	for !e.stopped {
		msgs, err := e.q.Receive(p, e.pf.ctlNode, e.batchSize, e.idleWait)
		if err != nil || len(msgs) == 0 {
			continue
		}
		// Mapping pipeline delay between poll and invocation.
		p.Sleep(e.pf.cfg.ESMDispatchDelay.Sample(e.pf.rng))
		_, _, invErr := e.pf.Invoke(p, e.fnName, EncodeSQSEvent(msgs))
		if invErr != nil {
			continue // not deleted; visibility timeout will redeliver
		}
		receipts = receipts[:0]
		for _, m := range msgs {
			receipts = append(receipts, m.Receipt)
		}
		if err := e.q.DeleteBatch(p, e.pf.ctlNode, receipts); err != nil {
			continue
		}
	}
}
