// Command faasbench regenerates every table and figure from "Serverless
// Computing: One Step Forward, Two Steps Back" (CIDR 2019) on the simulated
// cloud.
//
// Usage:
//
//	faasbench -list
//	faasbench -run table1
//	faasbench -run all [-seed 42] [-workers 8]
//
// Multi-point experiments fan their sweep points across -workers
// concurrent simulator kernels (default GOMAXPROCS; the SWEEP_WORKERS
// environment variable also overrides). Output is byte-identical at any
// worker count — each point derives its randomness from (seed, point)
// alone and results merge in point order.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

func main() {
	runID := flag.String("run", "all", "experiment id to run, or 'all'")
	seed := flag.Uint64("seed", 1, "deterministic simulation seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	workers := flag.Int("workers", 0,
		"concurrent sweep workers (0 = GOMAXPROCS or $SWEEP_WORKERS)")
	flag.Parse()
	sweep.SetWorkers(*workers)

	if *list {
		for _, e := range core.Experiments() {
			fmt.Printf("%-14s %s\n", e.ID, e.Title)
		}
		return
	}

	var exps []core.Experiment
	if *runID == "all" {
		exps = core.Experiments()
	} else {
		e, ok := core.ExperimentByID(*runID)
		if !ok {
			fmt.Fprintf(os.Stderr, "faasbench: unknown experiment %q (use -list)\n", *runID)
			os.Exit(2)
		}
		exps = []core.Experiment{e}
	}

	for _, e := range exps {
		start := time.Now()
		tables := e.Run(*seed)
		elapsed := time.Since(start)
		fmt.Printf("== %s  (id=%s, seed=%d, wall=%.1fs)\n\n", e.Title, e.ID, *seed, elapsed.Seconds())
		for _, t := range tables {
			fmt.Println(t.Render())
		}
	}
}
