// Quickstart: assemble a simulated cloud, register a function, invoke it,
// and read the bill — the smallest end-to-end tour of the library.
//
//	go run ./examples/quickstart
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/sim"
)

func main() {
	seed := flag.Uint64("seed", 42, "simulation seed")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	// A deterministic cloud: same seed, same results, every run.
	cloud := core.NewCloud(seed)
	defer cloud.Close()

	// Register a function that shouts its payload back.
	err := cloud.Lambda.Register(faas.Function{
		Name:     "greet",
		MemoryMB: 256,
		Timeout:  30 * time.Second,
		Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			ctx.Compute(int64(len(payload))) // pretend this is work
			return append([]byte("HELLO, "), payload...), nil
		},
	})
	if err != nil {
		return err
	}

	// Drive the simulation from a process; virtual time only advances
	// inside the kernel.
	cloud.K.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			start := p.Now()
			resp, rep, err := cloud.Lambda.Invoke(p, "greet", []byte("world"))
			if err != nil {
				panic(err)
			}
			fmt.Fprintf(w, "call %d: %q  latency=%-9v cold=%-5v billed=%v\n",
				i+1, resp, time.Duration(p.Now()-start).Round(time.Millisecond),
				rep.ColdStart, rep.BilledDuration)
		}
	})
	cloud.K.Run()

	fmt.Fprintln(w, "\nthe meter saw:")
	for _, line := range cloud.Meter.Lines() {
		fmt.Fprintf(w, "  %-16s count=%-4d cost=%v\n", line.Item, line.Count, line.Cost)
	}
	fmt.Fprintf(w, "total: %v (virtual time elapsed: %v)\n", cloud.Meter.Total(), cloud.K.Now())
	return nil
}
