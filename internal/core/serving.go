package core

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/compute"
	"repro/internal/faas"
	"repro/internal/msgnet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wordfilter"
)

// servingDoc is one document routed through the classifier.
type servingDoc struct {
	Batch int    `json:"batch"`
	Seq   int    `json:"seq"`
	Text  string `json:"text"`
}

// makeDocs builds a batch of ten ~100-character documents, some dirty.
func makeDocs(batch int) [][]byte {
	texts := []string{
		"the quarterly report shows darn good progress across all regions this year",
		"customer feedback was positive although the heck of a rollout was rocky",
		"this lousy integration keeps dropping rotten packets on the junk interface",
		"a perfectly ordinary sentence with no offending vocabulary at all today",
		"bogus metrics were removed from the garbage dashboard after the blast review",
	}
	docs := make([][]byte, ServingBatchSize)
	for i := range docs {
		d := servingDoc{Batch: batch, Seq: i, Text: texts[(batch+i)%len(texts)]}
		b, _ := json.Marshal(d)
		docs[i] = b
	}
	return docs
}

const servingBatches = 1000

// RunServing regenerates the §3.1 prediction-serving latencies: the same
// ten-document batches through four implementations — Lambda with per-
// invocation model fetch and S3 writeback, Lambda with a compiled-in model
// and SQS writeback, an EC2 instance on SQS, and an EC2 instance on direct
// (ZeroMQ-style) messaging. Latency is measured from the client initiating
// the batch to the results being durable in the output channel, averaged
// over 1,000 batches as in the paper.
func RunServing(seed uint64) []*Table {
	lambdaFetch := runServingLambda(seed, true)
	lambdaOpt := runServingLambda(seed+1, false)
	ec2SQS := runServingEC2SQS(seed + 2)
	ec2ZMQ := runServingEC2ZMQ(seed + 3)

	t := &Table{
		Title:  "§3.1 Prediction serving: mean latency per 10-document batch (1,000 batches)",
		Header: []string{"Implementation", "Measured", "Paper"},
	}
	t.AddRow("Lambda, model fetched from S3, results to S3", FmtDur(lambdaFetch), "559ms")
	t.AddRow("Lambda, compiled-in model, results to SQS", FmtDur(lambdaOpt), "447ms")
	t.AddRow("EC2 m5.large + SQS", FmtDur(ec2SQS), "13ms")
	t.AddRow("EC2 m5.large + ZeroMQ", FmtDur(ec2ZMQ), "2.8ms")
	t.AddNote("EC2+SQS vs optimized Lambda: %.0fx faster (paper says 27x; the paper's own numbers give 447/13 = 34x)",
		float64(lambdaOpt)/float64(ec2SQS))
	t.AddNote("EC2+ZeroMQ vs optimized Lambda: %.0fx faster (paper reports 127x)",
		float64(lambdaOpt)/float64(ec2ZMQ))
	t.AddMetric("lambda-fetch", "ns", float64(lambdaFetch))
	t.AddMetric("lambda-opt", "ns", float64(lambdaOpt))
	t.AddMetric("ec2-sqs", "ns", float64(ec2SQS))
	t.AddMetric("ec2-zmq", "ns", float64(ec2ZMQ))
	return []*Table{t}
}

// runServingLambda measures the two Lambda variants. fetchModel selects the
// unoptimized path: fetch the serialized model from S3 on every invocation
// and write results back to S3 instead of SQS.
func runServingLambda(seed uint64, fetchModel bool) time.Duration {
	c := NewCloud(seed)
	defer c.Close()
	client := c.ClientNode("client")
	inQ := c.SQS.CreateQueue("serve-in", 2*time.Minute)
	outQ := c.SQS.CreateQueue("serve-out", 2*time.Minute)
	rec := stats.NewRecorder("batch")
	completion := make(map[int]*sim.Latch)
	compiled := wordfilter.DefaultModel()

	setup := false
	c.K.Spawn("setup", func(p *sim.Proc) {
		c.S3.Put(p, client, "models/dirty-words", compiled.Serialize())
		setup = true
	})

	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		p, node := ctx.Proc(), ctx.Node()
		model := compiled
		if fetchModel {
			obj, err := c.S3.Get(p, node, "models/dirty-words")
			if err != nil {
				return nil, err
			}
			model = wordfilter.Parse(obj.Data)
		}
		ev, err := faas.DecodeSQSEvent(payload)
		if err != nil {
			return nil, err
		}
		batch := -1
		var cleaned []string
		for _, r := range ev.Records {
			var doc servingDoc
			if err := json.Unmarshal([]byte(r.Body), &doc); err != nil {
				return nil, err
			}
			batch = doc.Batch
			out, _ := model.Clean(doc.Text)
			cleaned = append(cleaned, out)
			ctx.Compute(int64(len(doc.Text)))
		}
		result, _ := json.Marshal(cleaned)
		if fetchModel {
			c.S3.Put(p, node, fmt.Sprintf("results/batch-%d", batch), result)
		} else {
			if _, err := outQ.Send(p, node, result); err != nil {
				return nil, err
			}
		}
		if l, ok := completion[batch]; ok {
			l.Release()
		}
		return nil, nil
	}
	if err := c.Lambda.Register(faas.Function{
		Name: "classify", MemoryMB: 1024, Timeout: time.Minute, Handler: handler,
	}); err != nil {
		panic(err)
	}
	esm := c.Lambda.MapQueue(inQ, "classify", ServingBatchSize)

	done := false
	c.K.Spawn("client", func(p *sim.Proc) {
		for !setup {
			p.Sleep(100 * time.Millisecond)
		}
		for b := 0; b < servingBatches; b++ {
			l := &sim.Latch{}
			completion[b] = l
			start := p.Now() // client initiates the batch
			if _, err := inQ.SendBatch(p, client, makeDocs(b)); err != nil {
				panic(err)
			}
			l.Wait(p)
			rec.Add(time.Duration(p.Now() - start))
			delete(completion, b)
			p.Sleep(50 * time.Millisecond) // pipeline settles between batches
		}
		esm.Stop()
		done = true
	})
	if !runKernelUntil(c.K, sim.Time(4*time.Hour), sim.Time(time.Minute), func() bool { return done }) {
		panic("serving (lambda) did not finish")
	}
	return rec.Mean()
}

func runServingEC2SQS(seed uint64) time.Duration {
	c := NewCloud(seed)
	defer c.Close()
	client := c.ClientNode("client")
	inQ := c.SQS.CreateQueue("serve-in", 2*time.Minute)
	outQ := c.SQS.CreateQueue("serve-out", 2*time.Minute)
	rec := stats.NewRecorder("batch")
	completion := make(map[int]*sim.Latch)
	model := wordfilter.DefaultModel()

	stop := false
	c.K.Spawn("server", func(p *sim.Proc) {
		inst := c.EC2.Launch(p, compute.M5Large, ClientRack)
		node := inst.Node()
		for !stop {
			msgs, err := inQ.Receive(p, node, ServingBatchSize, time.Second)
			if err != nil || len(msgs) == 0 {
				continue
			}
			batch := -1
			var cleaned []string
			var receipts []string
			for _, m := range msgs {
				var doc servingDoc
				if json.Unmarshal(m.Body, &doc) == nil {
					batch = doc.Batch
					out, _ := model.Clean(doc.Text)
					cleaned = append(cleaned, out)
				}
				receipts = append(receipts, m.Receipt)
				inst.Compute(p, int64(len(m.Body)))
			}
			result, _ := json.Marshal(cleaned)
			if _, err := outQ.Send(p, node, result); err != nil {
				panic(err)
			}
			if l, ok := completion[batch]; ok {
				l.Release()
			}
			inQ.DeleteBatch(p, node, receipts)
		}
	})

	done := false
	c.K.Spawn("client", func(p *sim.Proc) {
		p.Sleep(2 * time.Minute) // let the server boot
		for b := 0; b < servingBatches; b++ {
			l := &sim.Latch{}
			completion[b] = l
			start := p.Now() // client initiates the batch
			if _, err := inQ.SendBatch(p, client, makeDocs(b)); err != nil {
				panic(err)
			}
			l.Wait(p)
			rec.Add(time.Duration(p.Now() - start))
			delete(completion, b)
			p.Sleep(50 * time.Millisecond) // server re-parks in its long poll
		}
		stop = true
		done = true
	})
	if !runKernelUntil(c.K, sim.Time(2*time.Hour), sim.Time(time.Minute), func() bool { return done }) {
		panic("serving (ec2+sqs) did not finish")
	}
	return rec.Mean()
}

func runServingEC2ZMQ(seed uint64) time.Duration {
	c := NewCloud(seed)
	defer c.Close()
	rec := stats.NewRecorder("batch")
	model := wordfilter.DefaultModel()

	done := false
	c.K.Spawn("driver", func(p *sim.Proc) {
		server := c.EC2.Launch(p, compute.M5Large, ClientRack)
		clientVM := c.EC2.Launch(p, compute.M5Large, ClientRack)
		srvEP := c.Mesh.Endpoint("serve", server.Node())
		cliEP := c.Mesh.Endpoint("feeder", clientVM.Node())
		srvEP.Serve(func(sp *sim.Proc, pk msgnet.Packet) []byte {
			var doc servingDoc
			if json.Unmarshal(pk.Payload, &doc) != nil {
				return nil
			}
			out, _ := model.Clean(doc.Text)
			server.Compute(sp, int64(len(doc.Text)))
			return []byte(out)
		})
		for b := 0; b < servingBatches; b++ {
			docs := makeDocs(b)
			start := p.Now()
			for _, d := range docs {
				if _, err := cliEP.Call(p, "serve", d, 0); err != nil {
					panic(err)
				}
			}
			rec.Add(time.Duration(p.Now() - start))
		}
		done = true
	})
	if !runKernelUntil(c.K, sim.Time(time.Hour), sim.Time(time.Minute), func() bool { return done }) {
		panic("serving (ec2+zmq) did not finish")
	}
	return rec.Mean()
}

// RunServingCost regenerates the §3.1 cost comparison at 1M messages/s:
// the SQS request bill alone versus an EC2 fleet sized from measured
// instance throughput.
func RunServingCost(seed uint64) []*Table {
	c := NewCloud(seed)
	defer c.Close()

	// Measure a single m5.large's sustainable throughput: workers share
	// the instance's two cores, each message costing ServingCPUPerMessage.
	processed := 0
	measuring := false
	c.K.Spawn("throughput", func(p *sim.Proc) {
		inst := c.EC2.Launch(p, compute.M5Large, ClientRack)
		cores := sim.NewResource(inst.Type().VCPUs)
		for w := 0; w < 16; w++ {
			p.Spawn("worker", func(wp *sim.Proc) {
				for {
					// Receive side is pipelined across workers; CPU is
					// the binding constraint.
					wp.Sleep(queue.DefaultConfig().OpLatency.Sample(c.RNG) / ServingBatchSize)
					cores.Acquire(wp)
					wp.Sleep(ServingCPUPerMessage)
					cores.Release()
					if measuring {
						processed++
					}
				}
			})
		}
		p.Sleep(5 * time.Second) // warm up
		measuring = true
		p.Sleep(30 * time.Second)
		measuring = false
	})
	// Horizon covers instance boot (up to 90s) plus the window.
	c.K.RunUntil(sim.Time(3 * time.Minute))
	if processed == 0 {
		panic("servingcost: throughput probe measured nothing")
	}
	perInstance := float64(processed) / 30.0

	fleet := int(math.Ceil(ServingTargetRate / perInstance))
	ec2Hourly := float64(fleet) * float64(c.Catalog.EC2Hourly("m5.large"))

	// SQS request bill: every message is sent individually by clients
	// (1 request) and received in batches of 10 (0.1 requests).
	requestsPerMsg := 1.0 + 1.0/ServingBatchSize
	sqsHourly := ServingTargetRate * 3600 * requestsPerMsg * float64(c.Catalog.SQSPerRequest)

	t := &Table{
		Title:  "§3.1 Serving cost at 1M messages/s",
		Header: []string{"Approach", "Basis", "Cost per hour", "Paper"},
	}
	t.AddRow("SQS requests alone",
		fmt.Sprintf("%.1f requests/msg x 3.6B msgs/hr", requestsPerMsg),
		fmt.Sprintf("$%.0f", sqsHourly), "$1,584")
	t.AddRow("EC2 m5.large fleet",
		fmt.Sprintf("%d instances at %.0f msg/s each", fleet, perInstance),
		fmt.Sprintf("$%.2f", ec2Hourly), "$27.84")
	t.AddNote("cost ratio: %.0fx in EC2's favor (paper reports 57x)", sqsHourly/ec2Hourly)
	t.AddNote("instance throughput measured over a 30s steady-state window (paper: ~3,500 req/s)")
	t.AddMetric("sqs.cost", "USD/hr", sqsHourly)
	t.AddMetric("ec2.cost", "USD/hr", ec2Hourly)
	return []*Table{t}
}
