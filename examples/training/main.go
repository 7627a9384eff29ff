// Training: a scaled-down rendition of the paper's §3.1 model-training
// case study, with a real MLP learning real (synthetic) review data while
// the simulated platforms account for the data-shipping costs. One epoch
// over a 2GB corpus is enough to see the Lambda-vs-EC2 gap open up.
//
//	go run ./examples/training
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
	"repro/internal/mlp"
	"repro/internal/reviews"
	"repro/internal/sim"
)

const (
	corpusBytes = int64(2e9) // scaled-down corpus: 20 batches of 100MB
	batchBytes  = int64(100e6)
	vocab       = 128 // scaled-down feature width for the real model
)

func main() {
	seed := flag.Uint64("seed", 3, "simulation seed (the EC2 run uses seed+1)")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	batches := int(corpusBytes / batchBytes)
	fmt.Fprintf(w, "one epoch over %d batches of 100MB, real %d-feature MLP in the loop\n\n", batches, vocab)
	lambdaTime, l0, l1 := onLambda(w, seed, batches)
	ec2Time, e0, e1 := onEC2(w, seed+1, batches)
	fmt.Fprintf(w, "\nLambda: %-10v (holdout MSE %.3f -> %.3f)\n", lambdaTime.Round(time.Second), l0, l1)
	fmt.Fprintf(w, "EC2:    %-10v (holdout MSE %.3f -> %.3f)\n", ec2Time.Round(time.Second), e0, e1)
	fmt.Fprintf(w, "the data-shipping architecture costs %.1fx in wall clock\n",
		lambdaTime.Seconds()/ec2Time.Seconds())
	return nil
}

// trainer couples the real model with whatever platform pays for the I/O.
type trainer struct {
	gen *reviews.Generator
	net *mlp.Network
	opt *mlp.Adam
	hX  [][]float64
	hY  [][]float64
}

func newTrainer() *trainer {
	gen := reviews.NewGenerator(11, vocab)
	hX, hY := gen.Batch(128)
	return &trainer{
		gen: gen,
		net: mlp.New(mlp.Config{Input: vocab, Hidden: []int{10, 10}, Output: 1, Seed: 5}),
		opt: mlp.NewAdam(),
		hX:  hX, hY: hY,
	}
}

func (tr *trainer) step() {
	// Each simulated 100MB batch stands in for many real optimizer steps;
	// run a handful so the example visibly learns.
	for i := 0; i < 25; i++ {
		X, Y := tr.gen.Batch(32)
		tr.net.TrainBatch(tr.opt, X, Y)
	}
}

func (tr *trainer) holdout() float64 { return tr.net.Loss(tr.hX, tr.hY) }

func onLambda(w io.Writer, seed uint64, batches int) (time.Duration, float64, float64) {
	cloud := core.NewCloud(seed)
	defer cloud.Close()
	tr := newTrainer()
	before := tr.holdout()
	staging := cloud.ClientNode("staging")

	err := cloud.Lambda.Register(faas.Function{
		Name: "train", MemoryMB: 640, Timeout: 15 * time.Minute,
		Handler: func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			p, node := ctx.Proc(), ctx.Node()
			for i := 0; i < batches; i++ {
				if _, err := cloud.S3.Get(p, node, reviews.BatchKey(i)); err != nil {
					return nil, err
				}
				ctx.Compute(batchBytes)
				tr.step()
			}
			return nil, nil
		},
	})
	if err != nil {
		panic(err)
	}

	var elapsed time.Duration
	cloud.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < batches; i++ {
			cloud.S3.PutSized(p, staging, reviews.BatchKey(i), batchBytes)
		}
		start := p.Now()
		if _, _, err := cloud.Lambda.Invoke(p, "train", nil); err != nil {
			panic(err)
		}
		elapsed = time.Duration(p.Now() - start)
	})
	cloud.K.RunUntil(sim.Time(time.Hour))
	fmt.Fprintf(w, "Lambda (640MB): every batch fetched over the network from S3\n")
	return elapsed, before, tr.holdout()
}

func onEC2(w io.Writer, seed uint64, batches int) (time.Duration, float64, float64) {
	cloud := core.NewCloud(seed)
	defer cloud.Close()
	tr := newTrainer()
	before := tr.holdout()

	var elapsed time.Duration
	cloud.K.Spawn("driver", func(p *sim.Proc) {
		inst := cloud.EC2.Launch(p, compute.M4Large, core.ClientRack)
		for i := 0; i < batches; i++ {
			inst.Volume().Warm(reviews.BatchKey(i)) // data staged locally
		}
		start := p.Now()
		for i := 0; i < batches; i++ {
			if err := inst.Volume().Read(p, reviews.BatchKey(i), batchBytes); err != nil {
				panic(err)
			}
			if err := inst.Compute(p, batchBytes); err != nil {
				panic(err)
			}
			tr.step()
		}
		elapsed = time.Duration(p.Now() - start)
	})
	cloud.K.RunUntil(sim.Time(time.Hour))
	fmt.Fprintf(w, "EC2 m4.large: batches read from the local page cache\n")
	return elapsed, before, tr.holdout()
}
