// Serving: the §3.1 prediction-serving pipeline in miniature — dirty-word
// classification over SQS-batched documents, run three ways (Lambda,
// EC2+SQS, EC2 with direct messaging) with per-batch latency printed for
// each, plus what the same traffic would cost at a million messages per
// second.
//
//	go run ./examples/serving
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/msgnet"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wordfilter"
)

const batches = 50

func main() {
	seed := flag.Uint64("seed", 31, "simulation seed (the three variants use seed, seed+1, seed+2)")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	fmt.Fprintf(w, "classifying %d batches of 10 documents each way:\n\n", batches)
	l := lambdaWay(w, seed)
	s := sqsWay(w, seed+1)
	z := zmqWay(w, seed+2)
	fmt.Fprintf(w, "\n%-28s %v/batch\n", "Lambda (SQS trigger):", l.Round(time.Millisecond))
	fmt.Fprintf(w, "%-28s %v/batch\n", "EC2 + SQS:", s.Round(time.Millisecond))
	fmt.Fprintf(w, "%-28s %v/batch\n", "EC2 + direct messaging:", z.Round(100*time.Microsecond))
	fmt.Fprintf(w, "\nFaaS pays %.0fx over direct messaging for every single batch\n", l.Seconds()/z.Seconds())
	return nil
}

func docs(b int) [][]byte {
	out := make([][]byte, 10)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("batch %d doc %d says darn this lousy latency", b, i))
	}
	return out
}

func lambdaWay(w io.Writer, seed uint64) time.Duration {
	cloud := core.NewCloud(seed)
	defer cloud.Close()
	in := cloud.SQS.CreateQueue("in", 2*time.Minute)
	out := cloud.SQS.CreateQueue("out", 2*time.Minute)
	model := wordfilter.DefaultModel()
	latch := map[int]*sim.Latch{}
	rec := stats.NewRecorder("lambda")

	err := cloud.Lambda.Register(faas.Function{
		Name: "classify", MemoryMB: 512, Timeout: time.Minute,
		Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			b := -1
			for body, err := range faas.SQSBodies(payload) {
				if err != nil {
					return nil, err
				}
				text := string(body)
				cleaned, _ := model.Clean(text)
				fmt.Sscanf(text, "batch %d", &b)
				_ = cleaned
			}
			if _, err := out.Send(ctx.Proc(), ctx.Node(), []byte("done")); err != nil {
				return nil, err
			}
			if l, ok := latch[b]; ok {
				l.Release()
			}
			return nil, nil
		},
	})
	if err != nil {
		panic(err)
	}
	esm := cloud.Lambda.MapQueue(in, "classify", queue.MaxBatch)

	client := cloud.ClientNode("client")
	done := false
	cloud.K.Spawn("client", func(p *sim.Proc) {
		for b := 0; b < batches; b++ {
			l := &sim.Latch{}
			latch[b] = l
			start := p.Now()
			if _, err := in.SendBatch(p, client, docs(b)); err != nil {
				panic(err)
			}
			l.Wait(p)
			rec.Add(time.Duration(p.Now() - start))
			p.Sleep(50 * time.Millisecond)
		}
		esm.Stop()
		done = true
	})
	for t := sim.Time(0); !done; t += sim.Time(10 * time.Second) {
		cloud.K.RunUntil(t)
	}
	fmt.Fprintf(w, "  lambda: %s (every batch pays the invocation path)\n", rec)
	return rec.Mean()
}

func sqsWay(w io.Writer, seed uint64) time.Duration {
	cloud := core.NewCloud(seed)
	defer cloud.Close()
	in := cloud.SQS.CreateQueue("in", 2*time.Minute)
	out := cloud.SQS.CreateQueue("out", 2*time.Minute)
	model := wordfilter.DefaultModel()
	latch := map[int]*sim.Latch{}
	rec := stats.NewRecorder("ec2+sqs")

	stop := false
	cloud.K.Spawn("server", func(p *sim.Proc) {
		inst := cloud.EC2.Launch(p, compute.M5Large, core.ClientRack)
		for !stop {
			msgs, err := in.Receive(p, inst.Node(), nil, queue.MaxBatch, time.Second)
			if err != nil || len(msgs) == 0 {
				continue
			}
			b := -1
			var receipts []string
			for _, m := range msgs {
				model.Clean(string(m.Body))
				fmt.Sscanf(string(m.Body), "batch %d", &b)
				receipts = append(receipts, m.Receipt)
			}
			if _, err := out.Send(p, inst.Node(), []byte("done")); err != nil {
				panic(err)
			}
			if l, ok := latch[b]; ok {
				l.Release()
			}
			in.DeleteBatch(p, inst.Node(), receipts)
		}
	})

	client := cloud.ClientNode("client")
	done := false
	cloud.K.Spawn("client", func(p *sim.Proc) {
		p.Sleep(2 * time.Minute) // server boot
		for b := 0; b < batches; b++ {
			l := &sim.Latch{}
			latch[b] = l
			start := p.Now()
			if _, err := in.SendBatch(p, client, docs(b)); err != nil {
				panic(err)
			}
			l.Wait(p)
			rec.Add(time.Duration(p.Now() - start))
			p.Sleep(50 * time.Millisecond)
		}
		stop = true
		done = true
	})
	for t := sim.Time(0); !done; t += sim.Time(10 * time.Second) {
		cloud.K.RunUntil(t)
	}
	fmt.Fprintf(w, "  ec2+sqs: %s\n", rec)
	return rec.Mean()
}

func zmqWay(w io.Writer, seed uint64) time.Duration {
	cloud := core.NewCloud(seed)
	defer cloud.Close()
	model := wordfilter.DefaultModel()
	rec := stats.NewRecorder("ec2+zmq")

	done := false
	cloud.K.Spawn("driver", func(p *sim.Proc) {
		server := cloud.EC2.Launch(p, compute.M5Large, core.ClientRack)
		clientVM := cloud.EC2.Launch(p, compute.M5Large, core.ClientRack)
		srv := cloud.Mesh.Endpoint("classifier", server.Node())
		cli := cloud.Mesh.Endpoint("frontend", clientVM.Node())
		srv.Serve(func(sp *sim.Proc, pk msgnet.Packet) []byte {
			cleaned, _ := model.Clean(string(pk.Payload))
			return []byte(cleaned)
		})
		for b := 0; b < batches; b++ {
			start := p.Now()
			for _, d := range docs(b) {
				if _, err := cli.Call(p, "classifier", d, 0); err != nil {
					panic(err)
				}
			}
			rec.Add(time.Duration(p.Now() - start))
		}
		done = true
	})
	for t := sim.Time(0); !done; t += sim.Time(10 * time.Second) {
		cloud.K.RunUntil(t)
	}
	fmt.Fprintf(w, "  ec2+zmq: %s\n", rec)
	return rec.Mean()
}
