package core

import (
	"time"

	"repro/internal/compute"
	"repro/internal/faas"
	"repro/internal/msgnet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runKernelUntil advances the kernel in steps until cond holds or horizon
// passes, returning whether cond held. Experiments use it because perpetual
// background processes (pollers, servers) keep the event queue non-empty.
func runKernelUntil(k *sim.Kernel, horizon, step sim.Time, cond func() bool) bool {
	for t := k.Now() + step; t <= horizon; t += step {
		k.RunUntil(t)
		if cond() {
			return true
		}
	}
	return cond()
}

// RunTable1 regenerates Table 1: the mean latency of "communicating" 1KB
// six different ways, plus the compared-to-best ratio row. Trial counts
// match the paper: 1,000 invocations, 5,000 storage I/O pairs, 10,000
// network round trips.
func RunTable1(seed uint64) []*Table {
	c := NewCloud(seed)
	defer c.Close()

	recInvoke := stats.NewRecorder("invoke")
	recLambdaS3 := stats.NewRecorder("lambda-s3")
	recLambdaDDB := stats.NewRecorder("lambda-ddb")
	recEC2S3 := stats.NewRecorder("ec2-s3")
	recEC2DDB := stats.NewRecorder("ec2-ddb")
	recZMQ := stats.NewRecorder("ec2-zmq")

	payload := make([]byte, 1024)

	// Column 1: no-op Lambda invocation with a 1KB argument.
	if err := c.Lambda.Register(faas.Function{
		Name: "noop", MemoryMB: 128, Timeout: time.Minute,
		Handler: func(ctx *faas.Ctx, p []byte) ([]byte, error) { return nil, nil },
	}); err != nil {
		panic(err)
	}
	// Columns 2-3: I/O pairs issued from inside a running Lambda function.
	if err := c.Lambda.Register(faas.Function{
		Name: "io-probe", MemoryMB: 1024, Timeout: 15 * time.Minute,
		Handler: func(ctx *faas.Ctx, _ []byte) ([]byte, error) {
			p, node := ctx.Proc(), ctx.Node()
			for i := 0; i < 5000; i++ {
				start := p.Now()
				c.S3.Put(p, node, "probe/s3", payload)
				if _, err := c.S3.Get(p, node, "probe/s3"); err != nil {
					return nil, err
				}
				recLambdaS3.Add(time.Duration(p.Now() - start))
			}
			for i := 0; i < 5000; i++ {
				start := p.Now()
				if _, err := c.DDB.Put(p, node, "probe/ddb", payload); err != nil {
					return nil, err
				}
				if _, err := c.DDB.Get(p, node, "probe/ddb", true); err != nil {
					return nil, err
				}
				recLambdaDDB.Add(time.Duration(p.Now() - start))
			}
			return nil, nil
		},
	}); err != nil {
		panic(err)
	}

	done := 0
	c.K.Spawn("invoker", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ {
			start := p.Now()
			if _, _, err := c.Lambda.Invoke(p, "noop", payload); err != nil {
				panic(err)
			}
			recInvoke.Add(time.Duration(p.Now() - start))
		}
		done++
	})
	c.K.Spawn("lambda-io", func(p *sim.Proc) {
		// The probe's I/O takes ~9.9 virtual minutes; one invocation
		// fits the 15-minute lifetime.
		if _, _, err := c.Lambda.Invoke(p, "io-probe", nil); err != nil {
			panic(err)
		}
		done++
	})
	c.K.Spawn("ec2-io", func(p *sim.Proc) {
		inst := c.EC2.Launch(p, compute.M5Large, ClientRack)
		node := inst.Node()
		for i := 0; i < 5000; i++ {
			start := p.Now()
			c.S3.Put(p, node, "probe/ec2-s3", payload)
			if _, err := c.S3.Get(p, node, "probe/ec2-s3"); err != nil {
				panic(err)
			}
			recEC2S3.Add(time.Duration(p.Now() - start))
		}
		for i := 0; i < 5000; i++ {
			start := p.Now()
			if _, err := c.DDB.Put(p, node, "probe/ec2-ddb", payload); err != nil {
				panic(err)
			}
			if _, err := c.DDB.Get(p, node, "probe/ec2-ddb", true); err != nil {
				panic(err)
			}
			recEC2DDB.Add(time.Duration(p.Now() - start))
		}
		done++
	})
	c.K.Spawn("zmq", func(p *sim.Proc) {
		server := c.EC2.Launch(p, compute.M5Large, ClientRack)
		clientVM := c.EC2.Launch(p, compute.M5Large, ClientRack)
		srvEP := c.Mesh.Endpoint("zmq-server", server.Node())
		cliEP := c.Mesh.Endpoint("zmq-client", clientVM.Node())
		srvEP.Serve(func(sp *sim.Proc, pk msgnet.Packet) []byte { return []byte{1} })
		for i := 0; i < 10000; i++ {
			start := p.Now()
			if _, err := cliEP.Call(p, "zmq-server", payload, 0); err != nil {
				panic(err)
			}
			recZMQ.Add(time.Duration(p.Now() - start))
		}
		done++
	})

	c.K.RunUntil(sim.Time(2 * time.Hour))
	if done != 4 {
		panic("table1: drivers did not complete")
	}

	t := &Table{
		Title: "Table 1: latency of communicating 1KB (means; simulated reproduction)",
		Header: []string{"", "Func. Invoc. (1KB)", "Lambda I/O (S3)", "Lambda I/O (DynamoDB)",
			"EC2 I/O (S3)", "EC2 I/O (DynamoDB)", "EC2 NW (0MQ)"},
	}
	recs := []*stats.Recorder{recInvoke, recLambdaS3, recLambdaDDB, recEC2S3, recEC2DDB, recZMQ}
	best := recInvoke.Mean()
	for _, r := range recs[1:] {
		if m := r.Mean(); m > 0 && m < best {
			best = m
		}
	}
	row := []string{"Latency (measured)"}
	ratios := []string{"Compared to best"}
	for _, r := range recs {
		m := r.Mean()
		row = append(row, FmtDur(m))
		ratios = append(ratios, FmtRatio(float64(m)/float64(best)))
		t.AddMetric(r.Name(), "ns", float64(m))
	}
	t.Rows = append(t.Rows, row, ratios,
		[]string{"Paper reported", "303ms", "108ms", "11ms", "106ms", "11ms", "290µs"},
		[]string{"Paper ratios", "1,045x", "372x", "37.9x", "365x", "37.9x", "1x"},
	)
	t.AddNote("trials: 1,000 invocations; 5,000 I/O pairs per storage column; 10,000 ZeroMQ round trips")
	return []*Table{t}
}
