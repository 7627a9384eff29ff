package core

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/compute"
	"repro/internal/faas"
	"repro/internal/mlp"
	"repro/internal/pricing"
	"repro/internal/reviews"
	"repro/internal/sim"
	"repro/internal/stats"
)

// trainState is the paper's chained-execution baton: where in the 9,000
// iterations the previous Lambda execution stopped.
type trainState struct {
	Next int `json:"next"`
}

// proxyTrainer runs the real (scaled-down) MLP alongside the simulated
// full-size accounting so the experiment demonstrably learns. One real
// optimizer step is taken every realEvery simulated iterations.
type proxyTrainer struct {
	gen  *reviews.Generator
	net  *mlp.Network
	opt  *mlp.Adam
	hX   [][]float64
	hY   [][]float64
	real int
}

const proxyVocab = 128
const realEvery = 30

func newProxyTrainer(seed uint64) *proxyTrainer {
	gen := reviews.NewGenerator(seed, proxyVocab)
	hX, hY := gen.Batch(128)
	return &proxyTrainer{
		gen: gen,
		net: mlp.New(mlp.Config{Input: proxyVocab, Hidden: []int{10, 10}, Output: 1, Seed: seed}),
		opt: mlp.NewAdam(),
		hX:  hX,
		hY:  hY,
	}
}

func (pt *proxyTrainer) maybeStep(iter int) {
	if iter%realEvery != 0 {
		return
	}
	X, Y := pt.gen.Batch(32)
	pt.net.TrainBatch(pt.opt, X, Y)
	pt.real++
}

func (pt *proxyTrainer) holdoutLoss() float64 { return pt.net.Loss(pt.hX, pt.hY) }

// trainingResult summarizes one platform's run.
type trainingResult struct {
	fetchMean   time.Duration
	computeMean time.Duration
	iterMean    time.Duration
	executions  int
	total       time.Duration
	cost        pricing.USD
	lossBefore  float64
	lossAfter   float64
}

// RunTraining regenerates the §3.1 model-training case study: the same 10
// epochs over a 90GB corpus in 100MB batches, once on Lambda (640MB
// functions chained through the 15-minute lifetime, batches fetched from
// S3) and once on an m4.large with EBS-resident data.
func RunTraining(seed uint64) []*Table {
	totalIters := TrainingEpochs * int(TrainingCorpusBytes/TrainingBatchBytes) // 9,000

	lambda := runLambdaTraining(seed, totalIters)
	ec2 := runEC2Training(seed, totalIters)

	t := &Table{
		Title: "§3.1 Model training: Lambda (640MB, data in S3) vs EC2 m4.large (data on EBS)",
		Header: []string{"Platform", "Fetch/iter", "Optimize/iter", "Iter total",
			"Executions", "Total latency", "Cost"},
	}
	t.AddRow("Lambda", FmtDur(lambda.fetchMean), FmtDur(lambda.computeMean),
		FmtDur(lambda.iterMean), fmt.Sprintf("%d", lambda.executions),
		FmtDur(lambda.total), lambda.cost.String())
	t.AddRow("EC2 m4.large", FmtDur(ec2.fetchMean), FmtDur(ec2.computeMean),
		FmtDur(ec2.iterMean), fmt.Sprintf("%d", ec2.executions),
		FmtDur(ec2.total), ec2.cost.String())
	t.AddRow("Paper Lambda", "2.49s", "0.59s", "3.08s", "31", "465.0min", "$0.29")
	t.AddRow("Paper EC2", "0.04s", "0.10s", "0.14s", "1", "21.7min", "$0.04")
	t.AddNote("slowdown: Lambda is %.1fx slower (paper: 21x); cost: %.1fx more expensive (paper: 7.3x)",
		lambda.total.Seconds()/ec2.total.Seconds(), float64(lambda.cost)/float64(ec2.cost))
	t.AddNote("real proxy model (%d features) holdout MSE: %.3f -> %.3f on Lambda, %.3f -> %.3f on EC2",
		proxyVocab, lambda.lossBefore, lambda.lossAfter, ec2.lossBefore, ec2.lossAfter)
	t.AddNote("%d iterations = %d epochs x %d batches of 100MB", totalIters,
		TrainingEpochs, reviews.PaperBatchPerPass)
	t.AddMetric("lambda.total", "ns", float64(lambda.total))
	t.AddMetric("lambda.executions", "count", float64(lambda.executions))
	t.AddMetric("lambda.cost", "USD", float64(lambda.cost))
	t.AddMetric("ec2.total", "ns", float64(ec2.total))
	t.AddMetric("ec2.cost", "USD", float64(ec2.cost))
	return []*Table{t}
}

func runLambdaTraining(seed uint64, totalIters int) trainingResult {
	c := NewCloud(seed)
	defer c.Close()

	fetch := stats.NewRecorder("fetch")
	optim := stats.NewRecorder("optimize")
	iters := stats.NewRecorder("iter")
	pt := newProxyTrainer(seed)
	res := trainingResult{lossBefore: pt.holdoutLoss()}

	// Stage the corpus (bypasses the meter: staging is not part of the
	// measured training run).
	staging := c.ClientNode("staging")
	batches := int(TrainingCorpusBytes / TrainingBatchBytes)

	if err := c.Lambda.Register(faas.Function{
		Name:     "train",
		MemoryMB: TrainingLambdaMemoryMB,
		Timeout:  15 * time.Minute,
		Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			var st trainState
			if err := json.Unmarshal(payload, &st); err != nil {
				return nil, err
			}
			p, node := ctx.Proc(), ctx.Node()
			// Run as many iterations as fit in the lifetime, with a
			// safety margin of 1.2 estimated iterations.
			est := 4 * time.Second
			for st.Next < totalIters && ctx.Remaining() > time.Duration(1.2*float64(est)) {
				t0 := p.Now()
				if _, err := c.S3.Get(p, node, reviews.BatchKey(st.Next%batches)); err != nil {
					return nil, err
				}
				t1 := p.Now()
				ctx.Compute(TrainingBatchBytes)
				t2 := p.Now()
				pt.maybeStep(st.Next)
				fetch.Add(time.Duration(t1 - t0))
				optim.Add(time.Duration(t2 - t1))
				iters.Add(time.Duration(t2 - t0))
				est = time.Duration(t2 - t0)
				st.Next++
			}
			return json.Marshal(st)
		},
	}); err != nil {
		panic(err)
	}

	done := false
	var start, end sim.Time
	c.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < batches; i++ {
			c.S3.PutSized(p, staging, reviews.BatchKey(i), TrainingBatchBytes)
		}
		c.Meter.Reset() // exclude staging from the training bill
		start = p.Now()
		st := trainState{}
		for st.Next < totalIters {
			payload, _ := json.Marshal(st)
			resp, _, err := c.Lambda.Invoke(p, "train", payload)
			if err != nil {
				panic(fmt.Sprintf("training invoke: %v", err))
			}
			if err := json.Unmarshal(resp, &st); err != nil {
				panic(err)
			}
			res.executions++
		}
		end = p.Now()
		done = true
	})
	c.K.RunUntil(sim.Time(24 * time.Hour))
	if !done {
		panic("lambda training did not finish")
	}
	res.fetchMean = fetch.Mean()
	res.computeMean = optim.Mean()
	res.iterMean = iters.Mean()
	res.total = time.Duration(end - start)
	res.cost = c.Meter.Cost("lambda.gbsec") + c.Meter.Cost("lambda.request") +
		c.Meter.Cost("s3.get")
	res.lossAfter = pt.holdoutLoss()
	return res
}

func runEC2Training(seed uint64, totalIters int) trainingResult {
	c := NewCloud(seed)
	defer c.Close()

	fetch := stats.NewRecorder("fetch")
	optim := stats.NewRecorder("optimize")
	iters := stats.NewRecorder("iter")
	pt := newProxyTrainer(seed)
	res := trainingResult{lossBefore: pt.holdoutLoss(), executions: 1}

	done := false
	var elapsed time.Duration
	var cost pricing.USD
	batches := int(TrainingCorpusBytes / TrainingBatchBytes)
	c.K.Spawn("driver", func(p *sim.Proc) {
		inst := c.EC2.Launch(p, compute.M4Large, ClientRack)
		// The corpus is staged on the volume; steady-state reads are
		// page-cache warm, as in the paper's measured 0.04s fetches.
		for i := 0; i < batches; i++ {
			inst.Volume().Warm(reviews.BatchKey(i))
		}
		start := p.Now()
		for i := 0; i < totalIters; i++ {
			t0 := p.Now()
			if err := inst.Volume().Read(p, reviews.BatchKey(i%batches), TrainingBatchBytes); err != nil {
				panic(err)
			}
			t1 := p.Now()
			if err := inst.Compute(p, TrainingBatchBytes); err != nil {
				panic(err)
			}
			t2 := p.Now()
			pt.maybeStep(i)
			fetch.Add(time.Duration(t1 - t0))
			optim.Add(time.Duration(t2 - t1))
			iters.Add(time.Duration(t2 - t0))
		}
		elapsed = time.Duration(p.Now() - start)
		// The paper bills the training window, not instance boot.
		cost = c.Catalog.EC2Hourly(inst.Type().Name).PerHour(elapsed)
		done = true
	})
	c.K.RunUntil(sim.Time(24 * time.Hour))
	if !done {
		panic("ec2 training did not finish")
	}
	res.fetchMean = fetch.Mean()
	res.computeMean = optim.Mean()
	res.iterMean = iters.Mean()
	res.total = elapsed
	res.cost = cost
	res.lossAfter = pt.holdoutLoss()
	return res
}
