// Dataflow: §4's fluid code-and-data placement in action. A filter-heavy
// analytics job over 64 partitions runs three times — planner's choice,
// forced ship-code-to-data, forced ship-data-to-code — showing the planner
// picking the placement FaaS architecturally forbids.
//
//	go run ./examples/dataflow
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/future"
	"repro/internal/sim"
)

func main() {
	seed := flag.Uint64("seed", 77, "simulation seed")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	cloud := core.NewCloud(seed)
	defer cloud.Close()
	pf := future.New(cloud.Net, cloud.Mesh, cloud.RNG.Fork(), cloud.Catalog, cloud.Meter)

	ds := pf.CreateDataSet("clickstream", 5)
	var parts []string
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("shard-%02d", i)
		ds.AddExtent(key, 256e6) // 16GB total
		parts = append(parts, key)
	}
	job := &dataflow.Job{
		Input:      ds,
		Partitions: parts,
		Ops: []dataflow.Op{
			{Name: "parse", Selectivity: 1.0, CostMBps: 3000},
			{Name: "filter-bots", Selectivity: 0.05, CostMBps: 2500},
			{Name: "sessionize", Selectivity: 0.5, CostMBps: 1200},
		},
	}

	plan, costs, err := dataflow.Plan(job)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "64 x 256MB partitions through parse|filter|sessionize\n\n")
	fmt.Fprintf(w, "planner: %v per-partition predictions: code->data %.3fs, data->code %.3fs\n",
		plan.Placement, costs[dataflow.ShipCodeToData], costs[dataflow.ShipDataToCode])

	ex := dataflow.NewExecutor(pf)
	done := false
	cloud.K.Spawn("driver", func(p *sim.Proc) {
		execute := func(pl *dataflow.PhysicalPlan, label string) {
			res, err := ex.Execute(p, pl, 8, dataflow.StragglerPolicy{})
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "  %-22s %-9v output %.1fMB\n", label,
				res.Elapsed.Round(10*time.Millisecond), float64(res.OutputBytes)/1e6)
		}
		execute(plan, "planner ("+plan.Placement.String()+"):")
		execute(&dataflow.PhysicalPlan{Job: job, Placement: dataflow.ShipDataToCode}, "forced data->code:")
		execute(&dataflow.PhysicalPlan{Job: job, Placement: dataflow.ShipCodeToData}, "forced code->data:")
		done = true
	})
	for t := sim.Time(0); !done; t += sim.Time(time.Minute) {
		cloud.K.RunUntil(t)
	}
	fmt.Fprintf(w, "\nagent-seconds billed: %v — pay-per-use survives the placement fix\n",
		cloud.Meter.Cost("agent.gbsec"))
	return nil
}
