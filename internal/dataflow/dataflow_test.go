package dataflow

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/future"
	"repro/internal/msgnet"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k  *sim.Kernel
	pf *future.Platform
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(9)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	mesh := msgnet.NewMesh(net, rng.Fork())
	pf := future.New(net, mesh, rng.Fork(), pricing.Fall2018(), &pricing.Meter{})
	return &fixture{k: k, pf: pf}
}

func makeJob(pf *future.Platform, parts int, partBytes int64, ops []Op) *Job {
	ds := pf.CreateDataSet(fmt.Sprintf("in-%d-%d", parts, partBytes), 5)
	keys := make([]string, parts)
	for i := range keys {
		keys[i] = fmt.Sprintf("part-%03d", i)
		ds.AddExtent(keys[i], partBytes)
	}
	return &Job{Input: ds, Partitions: keys, Ops: ops}
}

func filterOp() Op { return Op{Name: "filter", Selectivity: 0.01, CostMBps: 2000} }
func mapOp() Op    { return Op{Name: "map", Selectivity: 1.0, CostMBps: 1500} }

func TestValidation(t *testing.T) {
	f := newFixture(t)
	job := makeJob(f.pf, 2, 1e6, []Op{filterOp()})
	if err := job.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []*Job{
		{Input: nil, Partitions: []string{"x"}, Ops: []Op{filterOp()}},
		{Input: job.Input, Partitions: nil, Ops: []Op{filterOp()}},
		{Input: job.Input, Partitions: []string{"part-000"}, Ops: nil},
		{Input: job.Input, Partitions: []string{"ghost"}, Ops: []Op{filterOp()}},
		{Input: job.Input, Partitions: []string{"part-000"}, Ops: []Op{{Name: "", Selectivity: 1, CostMBps: 1}}},
		{Input: job.Input, Partitions: []string{"part-000"}, Ops: []Op{{Name: "x", Selectivity: -1, CostMBps: 1}}},
		{Input: job.Input, Partitions: []string{"part-000"}, Ops: []Op{{Name: "x", Selectivity: 1, CostMBps: 0}}},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
}

func TestPlannerPrefersCodeToDataForSelectiveOps(t *testing.T) {
	f := newFixture(t)
	// Aggressive filter over big partitions: shipping 100MB over the
	// network loses to reading locally and shipping 1MB of results.
	job := makeJob(f.pf, 10, 100e6, []Op{filterOp()})
	plan, costs, err := Plan(job)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Placement != ShipCodeToData {
		t.Errorf("placement = %v (costs %v), want code->data", plan.Placement, costs)
	}
	if costs[ShipCodeToData] >= costs[ShipDataToCode] {
		t.Errorf("cost model inverted: %v", costs)
	}
}

func TestPlannerPrefersDataToCodeForTinyInputs(t *testing.T) {
	f := newFixture(t)
	// Tiny partitions: the per-partition share of code shipping dominates,
	// so streaming the data to an existing remote agent wins.
	job := makeJob(f.pf, 1, 64e3, []Op{mapOp()})
	plan, costs, err := Plan(job)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Placement != ShipDataToCode {
		t.Errorf("placement = %v (costs %v), want data->code", plan.Placement, costs)
	}
}

func TestExecuteProcessesAllPartitions(t *testing.T) {
	f := newFixture(t)
	job := makeJob(f.pf, 8, 10e6, []Op{filterOp()})
	plan, _, err := Plan(job)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f.pf)
	var res *Result
	f.k.Spawn("driver", func(p *sim.Proc) {
		res, err = ex.Execute(p, plan, 4, StragglerPolicy{})
	})
	f.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Partitions != 8 {
		t.Errorf("partitions = %d", res.Partitions)
	}
	// 8 x 10MB x 0.01 selectivity = 800KB of output.
	if res.OutputBytes < 7e5 || res.OutputBytes > 9e5 {
		t.Errorf("output = %d bytes, want ~800KB", res.OutputBytes)
	}
	if res.Elapsed <= 0 {
		t.Error("no elapsed time recorded")
	}
}

func TestPlannerChoiceBeatsForcedAlternative(t *testing.T) {
	// The ablation that justifies the planner: execute the same job under
	// both placements; the planner's pick must be the faster one.
	f := newFixture(t)
	job := makeJob(f.pf, 6, 100e6, []Op{filterOp()})
	plan, _, err := Plan(job)
	if err != nil {
		t.Fatal(err)
	}
	forced := &PhysicalPlan{Job: job, Placement: ShipDataToCode}
	ex := NewExecutor(f.pf)
	var chosen, other *Result
	f.k.Spawn("driver", func(p *sim.Proc) {
		chosen, err = ex.Execute(p, plan, 3, StragglerPolicy{})
		if err != nil {
			return
		}
		other, err = ex.Execute(p, forced, 3, StragglerPolicy{})
	})
	f.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	if chosen.Elapsed >= other.Elapsed {
		t.Errorf("planner pick (%v, %v) not faster than forced %v (%v)",
			plan.Placement, chosen.Elapsed, forced.Placement, other.Elapsed)
	}
}

func TestCostModelTracksExecution(t *testing.T) {
	f := newFixture(t)
	job := makeJob(f.pf, 4, 50e6, []Op{mapOp(), filterOp()})
	plan, _, err := Plan(job)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f.pf)
	var res *Result
	f.k.Spawn("driver", func(p *sim.Proc) {
		res, err = ex.Execute(p, plan, 1, StragglerPolicy{}) // sequential: prediction is per partition
	})
	f.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	perPart := res.Elapsed.Seconds() / float64(res.Partitions)
	if perPart < plan.PredictedSeconds*0.7 || perPart > plan.PredictedSeconds*1.5 {
		t.Errorf("measured %.3fs/partition vs predicted %.3fs: cost model drifting", perPart, plan.PredictedSeconds)
	}
}

func TestParallelWorkersScale(t *testing.T) {
	f := newFixture(t)
	job := makeJob(f.pf, 12, 50e6, []Op{mapOp()})
	plan, _, err := Plan(job)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExecutor(f.pf)
	var seq, par *Result
	f.k.Spawn("driver", func(p *sim.Proc) {
		seq, err = ex.Execute(p, plan, 1, StragglerPolicy{})
		if err != nil {
			return
		}
		par, err = ex.Execute(p, plan, 6, StragglerPolicy{})
	})
	f.k.Run()
	if err != nil {
		t.Fatal(err)
	}
	speedup := seq.Elapsed.Seconds() / par.Elapsed.Seconds()
	if speedup < 3 {
		t.Errorf("6-way speedup = %.1fx, want >= 3x", speedup)
	}
}

func TestExecuteInvalidWorkerCountsClamped(t *testing.T) {
	f := newFixture(t)
	job := makeJob(f.pf, 2, 1e6, []Op{mapOp()})
	plan, _, _ := Plan(job)
	ex := NewExecutor(f.pf)
	var err error
	f.k.Spawn("driver", func(p *sim.Proc) {
		_, err = ex.Execute(p, plan, 0, StragglerPolicy{}) // clamps to 1
		if err != nil {
			return
		}
		_, err = ex.Execute(p, plan, 99, StragglerPolicy{}) // clamps to len(partitions)
	})
	f.k.Run()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPlacementString(t *testing.T) {
	if ShipCodeToData.String() != "code->data" || ShipDataToCode.String() != "data->code" {
		t.Error("placement strings wrong")
	}
}

// Property: for any partition size and selectivity, the planner never picks
// a placement whose modeled cost exceeds the alternative's.
func TestQuickPlannerOptimal(t *testing.T) {
	prop := func(sizeMB uint16, selPct uint8, parts uint8) bool {
		k := sim.NewKernel()
		defer k.Close()
		rng := simrand.New(1)
		net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
		mesh := msgnet.NewMesh(net, rng.Fork())
		pf := future.New(net, mesh, rng.Fork(), pricing.Fall2018(), &pricing.Meter{})
		n := int(parts%8) + 1
		size := (int64(sizeMB) + 1) * 1e5
		sel := float64(selPct%101) / 100
		job := makeJob(pf, n, size, []Op{{Name: "op", Selectivity: sel, CostMBps: 1000}})
		plan, costs, err := Plan(job)
		if err != nil {
			return false
		}
		return costs[plan.Placement] <= costs[otherPlacement(plan.Placement)]+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func otherPlacement(p Placement) Placement {
	if p == ShipCodeToData {
		return ShipDataToCode
	}
	return ShipCodeToData
}

// Smoke check that time is simulated, not wall-clock.
func TestExecutionIsVirtualTime(t *testing.T) {
	f := newFixture(t)
	job := makeJob(f.pf, 20, 100e6, []Op{mapOp()})
	plan, _, _ := Plan(job)
	ex := NewExecutor(f.pf)
	wall := time.Now()
	var res *Result
	f.k.Spawn("driver", func(p *sim.Proc) {
		res, _ = ex.Execute(p, plan, 2, StragglerPolicy{})
	})
	f.k.Run()
	if res.Elapsed < 500*time.Millisecond {
		t.Errorf("virtual elapsed = %v, expected substantial", res.Elapsed)
	}
	if time.Since(wall) > 2*time.Second {
		t.Errorf("wall time %v for a simulated job", time.Since(wall))
	}
}
