// Statefulserving: the paper's §4 "fluid, function-colocated state" demo.
// A session-counting service runs twice: once the §3.1 way (every state op
// is a DynamoDB round trip) and once with the state cache (each hosting VM
// carries a CRDT replica; reads are local memory, writes gossip between
// replicas and write-behind-flush to the store). Same seed, same traffic —
// the difference is where the state lives.
//
//	go run ./examples/statefulserving
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
	"repro/internal/statecache"
)

const (
	workers = 3
	rounds  = 40 // state ops per worker
)

func main() {
	seed := flag.Uint64("seed", 11, "simulation seed (the cached run uses seed+1)")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	fmt.Fprintf(w, "%d concurrent workers, %d session-counter ops each\n\n", workers, rounds)

	unTime, unBill := variant(w, seed, false)
	caTime, caBill := variant(w, seed+1, true)

	fmt.Fprintf(w, "\nuncached (DynamoDB round trips): %8v/op, state bill %v\n",
		unTime.Round(100*time.Microsecond), unBill)
	fmt.Fprintf(w, "cached (colocated CRDT replicas): %8v/op, state bill %v\n",
		caTime.Round(10*time.Nanosecond), caBill)
	fmt.Fprintf(w, "\ndata shipping costs %.0fx per op; lattice merges make the local copy safe\n",
		unTime.Seconds()/caTime.Seconds())
	return nil
}

// variant measures mean per-op latency plus the state-tier bill for one
// variant.
func variant(out io.Writer, seed uint64, cached bool) (time.Duration, string) {
	cfg := core.DefaultConfig()
	cfg.Lambda.ContainersPerVM = 1 // one replica per worker VM
	cloud := core.NewCloudWith(seed, cfg)
	defer cloud.Close()

	var cl *statecache.Cluster
	if cached {
		cl = statecache.New("sessions", cloud.Net, cloud.DDB, cloud.RNG.Fork(),
			statecache.DefaultConfig(), cloud.Catalog, cloud.Meter)
		cloud.Lambda.AttachStateCache(cl)
	}

	var opTime time.Duration
	ops := 0
	handler := func(ctx *faas.Ctx, payload []byte) ([]byte, error) {
		p := ctx.Proc()
		me := string(payload)
		for i := 0; i < rounds; i++ {
			start := p.Now()
			if cached {
				c := ctx.Cache()
				c.AddCounter(p, "visits", 1)
				c.AddSet(p, "active", me)
				c.SetRegister(p, "last-seen", me)
			} else {
				// The blackboard way: every op ships state to the store.
				if _, err := cloud.DDB.Put(p, ctx.Node(), "visits/"+me, payload); err != nil {
					return nil, err
				}
				if _, err := cloud.DDB.Get(p, ctx.Node(), "visits/"+me, true); err != nil {
					return nil, err
				}
			}
			opTime += time.Duration(p.Now() - start)
			ops++
			p.Sleep(50 * time.Millisecond) // think time between session events
		}
		return nil, nil
	}
	if err := cloud.Lambda.Register(faas.Function{
		Name: "session", MemoryMB: 256, Timeout: time.Minute, Handler: handler,
	}); err != nil {
		panic(err)
	}

	cloud.K.Spawn("driver", func(p *sim.Proc) {
		var wg sim.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			name := fmt.Sprintf("w%d", w)
			p.Spawn(name, func(wp *sim.Proc) {
				defer wg.Done()
				if _, _, err := cloud.Lambda.Invoke(wp, "session", []byte(name)); err != nil {
					panic(err)
				}
			})
		}
		wg.Wait(p)
		if cl != nil {
			p.Sleep(time.Second) // let gossip converge, then show it
			cl.Accrue(p.Now())
			for w := 0; w < workers; w++ {
				// Any replica answers: the lattice join carries every
				// worker's deltas to every VM.
				node := cloud.Net.Node(fmt.Sprintf("lambda-vm-%d", w+1))
				if node == nil {
					continue
				}
				if rep := cl.Replica(node); rep != nil {
					fmt.Fprintf(out, "  replica on lambda-vm-%d: visits=%d active=%v last-seen=%q\n",
						w+1, rep.PeekCounter("visits"), rep.PeekSet("active"),
						rep.PeekRegister("last-seen"))
				}
			}
			fmt.Fprintf(out, "  gossip staleness: %v\n", cl.Staleness())
		}
	})
	cloud.K.RunUntil(sim.Time(5 * time.Minute))

	bill := cloud.Meter.Cost("dynamodb.read") + cloud.Meter.Cost("dynamodb.write") +
		cloud.Meter.Cost("statecache.gbsec")
	return opTime / time.Duration(ops), bill.String()
}
