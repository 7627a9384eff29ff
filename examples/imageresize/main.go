// Imageresize: the paper's §2 "easy case" — embarrassingly parallel fan-out
// (the Seattle Times thumbnail workload). One hundred independent resize
// jobs autoscale across containers; the example shows where FaaS genuinely
// shines, and also surfaces the VM packing that will matter once jobs do
// I/O: 100 concurrent containers share five 538 Mbps VM NICs.
//
//	go run ./examples/imageresize
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/faas"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	seed := flag.Uint64("seed", 7, "simulation seed")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	cloud := core.NewCloud(seed)
	defer cloud.Close()

	// Stage 100 "images" (sized objects) in the object store.
	const images = 100
	staged := false
	staging := cloud.ClientNode("staging")
	cloud.K.Spawn("staging", func(p *sim.Proc) {
		for i := 0; i < images; i++ {
			cloud.S3.PutSized(p, staging, key(i), 4e6) // 4MB originals
		}
		staged = true
	})

	err := cloud.Lambda.Register(faas.Function{
		Name:     "resize",
		MemoryMB: 512,
		Timeout:  time.Minute,
		Handler: func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
			p, node := ctx.Proc(), ctx.Node()
			obj, err := cloud.S3.Get(p, node, string(payload))
			if err != nil {
				return nil, err
			}
			ctx.Compute(obj.Size)                                     // decode + scale
			cloud.S3.PutSized(p, node, string(payload)+"/thumb", 4e4) // 40KB thumbnail
			return nil, nil
		},
	})
	if err != nil {
		return err
	}

	lat := stats.NewRecorder("resize")
	var wg sim.WaitGroup
	done := false
	cloud.K.Spawn("fanout", func(p *sim.Proc) {
		for !staged {
			p.Sleep(time.Second)
		}
		start := p.Now()
		for i := 0; i < images; i++ {
			i := i
			wg.Add(1)
			p.Spawn("job", func(jp *sim.Proc) {
				defer wg.Done()
				s := jp.Now()
				if _, _, err := cloud.Lambda.Invoke(jp, "resize", []byte(key(i))); err != nil {
					panic(err)
				}
				lat.Add(time.Duration(jp.Now() - s))
			})
		}
		wg.Wait(p)
		fmt.Fprintf(w, "%d images resized in %v of virtual time (sequential would take ~%v)\n",
			images, time.Duration(p.Now()-start).Round(time.Millisecond),
			time.Duration(images)*lat.Mean())
		done = true
	})
	cloud.K.RunUntil(sim.Time(time.Hour))
	if !done {
		return errors.New("fan-out did not finish")
	}

	fmt.Fprintf(w, "per-image latency: mean=%v p50=%v p99=%v\n",
		lat.Mean().Round(time.Millisecond), lat.Median().Round(time.Millisecond),
		lat.Percentile(99).Round(time.Millisecond))
	fmt.Fprintf(w, "platform autoscaled onto %d shared VMs (20 containers each)\n", cloud.Lambda.VMCount())
	fmt.Fprintf(w, "bill: %v across %d invocations\n",
		cloud.Meter.Cost("lambda.gbsec")+cloud.Meter.Cost("lambda.request"),
		cloud.Meter.Count("lambda.request"))
	return nil
}

func key(i int) string { return fmt.Sprintf("images/img-%03d", i) }
