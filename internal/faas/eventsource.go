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
// AppendSQSEvent (sqsjson.go) encodes a message batch into payload bytes,
// and SQSBodies reads the record bodies back; both keep to encoding/json's
// form of this type.
type SQSEvent struct {
	Records []SQSRecord `json:"records"`
}

// EventSourceMapping is a poller fleet that drains an SQS queue into a
// function, modeling Lambda's SQS trigger: each poller long-polls the
// queue, pushes its batch through the mapping pipeline, invokes
// synchronously, and deletes the batch only on success (failures reappear
// after the visibility timeout). Each poller receives every batch into the
// same message buffer and encodes it into the same payload buffer, which
// the Handler contract makes safe: a payload is valid only until the
// handler returns.
type EventSourceMapping struct {
	pf        *Platform
	q         *queue.Queue
	fnName    string
	batchSize int
	stop      queue.PollStop
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
		idleWait:  time.Second,
	}
	for i := 0; i < n; i++ {
		pf.net.Kernel().Spawn(fmt.Sprintf("esm/%s/%d", fnName, i), esm.run)
	}
	return esm
}

// Stop halts every poller after its current cycle.
func (e *EventSourceMapping) Stop() { e.stop.Stop() }

func (e *EventSourceMapping) run(p *sim.Proc) {
	// Reused across the poller's batches.
	var payload []byte
	var receipts []string
	msgs := make([]queue.Message, 0, e.batchSize)
	for !e.stop.Stopped() {
		// Idle polls repeat inside PollUntil without resuming the poller.
		var err error
		msgs, err = e.q.PollUntil(p, e.pf.ctlNode, msgs[:0], e.batchSize, e.idleWait, &e.stop)
		if err != nil || len(msgs) == 0 {
			continue
		}
		// Mapping pipeline delay between poll and invocation: the
		// invocation's first wake-up ends it.
		delay := esmDispatchDelay.Sample(e.pf.rng)
		payload = AppendSQSEvent(payload[:0], msgs)
		_, _, invErr := e.pf.invoke(p, delay, e.fnName, payload)
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
