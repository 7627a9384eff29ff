package workflow

import (
	"strings"
	"testing"
	"time"

	"repro/internal/faas"
	"repro/internal/netsim"
	"repro/internal/objectstore"
	"repro/internal/pricing"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k      *sim.Kernel
	pf     *faas.Platform
	qsvc   *queue.Service
	store  *objectstore.Store
	caller *netsim.Node
	meter  *pricing.Meter
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(77)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	cat := pricing.Fall2018()
	return &fixture{
		k:      k,
		pf:     faas.New("lambda", net, rng.Fork(), faas.DefaultConfig(), cat, meter),
		qsvc:   queue.NewService("sqs", net, 9, rng.Fork(), cat, meter),
		store:  objectstore.New("s3", net, 9, rng.Fork(), objectstore.DefaultConfig(), cat, meter),
		caller: net.NewNode("client", 0, netsim.Gbps(10)),
		meter:  meter,
	}
}

func upperStep(name string) Step {
	return Step{
		Name: name,
		Work: func(ctx *faas.Ctx, data []byte) ([]byte, error) {
			return []byte(strings.ToUpper(string(data))), nil
		},
	}
}

func TestSingleStepPipeline(t *testing.T) {
	f := newFixture(t)
	pl := New("single", f.pf, f.qsvc, f.store, []Step{upperStep("shout")})
	if err := pl.Deploy(f.k); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	var res Result
	f.k.Spawn("client", func(p *sim.Proc) {
		pr, err := pl.Submit(p, f.caller, []byte("hello"))
		if err != nil {
			t.Errorf("Submit: %v", err)
			return
		}
		res = pr.Get(p)
		pl.Stop()
	})
	f.k.RunUntil(sim.Time(2 * time.Minute))
	if string(res.Output) != "HELLO" {
		t.Errorf("output = %q", res.Output)
	}
	if res.Latency <= 0 {
		t.Error("latency not recorded")
	}
}

func TestMultiStepStatefulPipeline(t *testing.T) {
	f := newFixture(t)
	steps := []Step{
		{Name: "validate", WritesState: true, Work: func(ctx *faas.Ctx, d []byte) ([]byte, error) {
			return append(d, []byte("|validated")...), nil
		}},
		{Name: "enrich", ReadsState: true, WritesState: true, Work: func(ctx *faas.Ctx, d []byte) ([]byte, error) {
			return append(d, []byte("|enriched")...), nil
		}},
		{Name: "finalize", ReadsState: true, Work: func(ctx *faas.Ctx, d []byte) ([]byte, error) {
			return append(d, []byte("|done")...), nil
		}},
	}
	pl := New("signup", f.pf, f.qsvc, f.store, steps)
	if err := pl.Deploy(f.k); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	var res Result
	f.k.Spawn("client", func(p *sim.Proc) {
		pr, _ := pl.Submit(p, f.caller, []byte("user42"))
		res = pr.Get(p)
		pl.Stop()
	})
	f.k.RunUntil(sim.Time(5 * time.Minute))
	want := "user42|validated|enriched|done"
	if string(res.Output) != want {
		t.Errorf("output = %q, want %q", res.Output, want)
	}
	// Per-step overhead: 3 steps x (queue hop + ESM + invoke + state I/O)
	// cannot be faster than ~1.5s; the whole point of E8.
	if res.Latency < 1500*time.Millisecond {
		t.Errorf("3-step latency = %v, implausibly fast", res.Latency)
	}
	if f.meter.Count("s3.put") < 2 || f.meter.Count("s3.get") < 2 {
		t.Error("stateful steps did not touch the object store")
	}
}

func TestPipelineProcessesManyItems(t *testing.T) {
	f := newFixture(t)
	pl := New("bulk", f.pf, f.qsvc, f.store, []Step{upperStep("a"), upperStep("b")})
	if err := pl.Deploy(f.k); err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	const items = 15
	got := 0
	f.k.Spawn("client", func(p *sim.Proc) {
		var prs []*sim.Promise[Result]
		for i := 0; i < items; i++ {
			pr, _ := pl.Submit(p, f.caller, []byte{byte('a' + i)})
			prs = append(prs, pr)
		}
		for _, pr := range prs {
			pr.Get(p)
			got++
		}
		pl.Stop()
	})
	f.k.RunUntil(sim.Time(10 * time.Minute))
	if got != items {
		t.Errorf("completed %d/%d items", got, items)
	}
}

func TestSubmitBeforeDeployFails(t *testing.T) {
	f := newFixture(t)
	pl := New("nope", f.pf, f.qsvc, f.store, []Step{upperStep("x")})
	var err error
	f.k.Spawn("client", func(p *sim.Proc) {
		_, err = pl.Submit(p, f.caller, []byte("x"))
	})
	f.k.Run()
	if err != ErrNotDeployed {
		t.Errorf("err = %v, want ErrNotDeployed", err)
	}
}

func TestDeployIdempotent(t *testing.T) {
	f := newFixture(t)
	pl := New("idem", f.pf, f.qsvc, f.store, []Step{upperStep("x")})
	if err := pl.Deploy(f.k); err != nil {
		t.Fatalf("first deploy: %v", err)
	}
	if err := pl.Deploy(f.k); err != nil {
		t.Fatalf("second deploy: %v", err)
	}
	pl.Stop()
	f.k.RunUntil(sim.Time(5 * time.Second))
}

func TestEmptyPipelinePanics(t *testing.T) {
	f := newFixture(t)
	defer func() {
		if recover() == nil {
			t.Fatal("empty step list did not panic")
		}
	}()
	New("empty", f.pf, f.qsvc, f.store, nil)
}
