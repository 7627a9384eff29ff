// Signup: the §2 function-composition pattern end to end — an account-
// creation pipeline in the style of the paper's Autodesk case study, each
// step its own Lambda function fed by its own queue with state parked in
// S3, next to the same logic run as a single process.
//
//	go run ./examples/signup
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/compute"
	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/workflow"
)

func steps() []workflow.Step {
	names := []string{"validate", "dedupe", "create", "provision", "permissions", "notify"}
	out := make([]workflow.Step, len(names))
	for i, n := range names {
		n := n
		out[i] = workflow.Step{
			Name:        n,
			ReadsState:  i > 0,
			WritesState: true,
			Work: func(ctx *faas.Ctx, d []byte) ([]byte, error) {
				ctx.Compute(int64(len(d)) + 512)
				return append(d, []byte("→"+n)...), nil
			},
		}
	}
	return out
}

func main() {
	seed := flag.Uint64("seed", 55, "simulation seed")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	cloud := core.NewCloud(seed)
	defer cloud.Close()

	pl := workflow.New("signup", cloud.Lambda, cloud.SQS, cloud.S3, steps())
	if err := pl.Deploy(cloud.K); err != nil {
		return err
	}

	client := cloud.ClientNode("frontend")
	done := false
	cloud.K.Spawn("driver", func(p *sim.Proc) {
		fmt.Fprintf(w, "signing up 5 users through a %d-step FaaS pipeline:\n\n", pl.Steps())
		for i := 0; i < 5; i++ {
			user := fmt.Sprintf("user-%c", 'a'+i)
			pr, err := pl.Submit(p, client, []byte(user))
			if err != nil {
				panic(err)
			}
			res := pr.Get(p)
			fmt.Fprintf(w, "  %-7s %-9v %s\n", user,
				res.Latency.Round(10*time.Millisecond), trail(string(res.Output)))
		}
		pl.Stop()

		// The same logic, one process, local state.
		inst := cloud.EC2.Launch(p, compute.M5Large, core.ClientRack)
		start := p.Now()
		data := []byte("user-x")
		for i, st := range steps() {
			key := fmt.Sprintf("st-%d", i)
			if st.ReadsState {
				inst.Volume().Read(p, key, int64(len(data)))
			}
			inst.Compute(p, int64(len(data))+512)
			inst.Volume().Write(p, key, int64(len(data)))
		}
		mono := time.Duration(p.Now() - start)
		fmt.Fprintf(w, "\nsame steps in one process: %v — the pipeline's latency is pure\n", mono.Round(time.Millisecond))
		fmt.Fprintf(w, "queue/invoke/state overhead (the paper's Autodesk signups averaged ~10min)\n")
		done = true
	})
	for t := sim.Time(0); !done; t += sim.Time(10 * time.Second) {
		cloud.K.RunUntil(t)
	}
	return nil
}

func trail(s string) string {
	if i := strings.Index(s, "→"); i >= 0 {
		return "completed " + s[i:]
	}
	return s
}
