// Disorderly: §3.2's "Can Limitations Set Us Free?" as a runnable demo.
// Ten stateless functions race to count 200 events through *eventually
// consistent* storage, twice: once with a naive read-modify-write integer
// (which silently loses updates), once with a G-Counter CRDT merged
// through the same storage (which converges exactly) — the paper's point
// that disorderly, coordination-tolerant designs are the way to live with
// FaaS's loose consistency.
//
//	go run ./examples/disorderly
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/crdt"
	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/sim"
)

const (
	workers = 10
	events  = 20 // per worker
)

func main() {
	seed := flag.Uint64("seed", 41, "simulation seed (the naive run; the CRDT run uses seed+1)")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	fmt.Fprintf(w, "%d functions each record %d events via eventually consistent storage\n\n",
		workers, events)
	naive := runNaive(seed)
	exact := runCRDT(seed + 1)
	want := workers * events
	fmt.Fprintf(w, "\nnaive integer:   %3d / %d  (unconditional read-modify-write loses races)\n", naive, want)
	fmt.Fprintf(w, "G-Counter CRDT:  %3d / %d  (merge is commutative, associative, idempotent)\n", exact, want)
	return nil
}

// runNaive: read an integer (eventually consistent), add one, write it
// back unconditionally — the pattern sequential programmers reach for.
func runNaive(seed uint64) int64 {
	cloud, table := setup(seed)
	defer cloud.Close()
	var wg sim.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		node := cloud.Net.NewNode(fmt.Sprintf("fn-%d", w), 1, netsim.Mbps(538))
		wg.Add(1)
		cloud.K.Spawn("worker", func(p *sim.Proc) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				var cur int64
				if item, err := table.Get(p, node, "count", false); err == nil {
					cur, _ = strconv.ParseInt(string(item.Value), 10, 64)
				}
				table.Put(p, node, "count", []byte(strconv.FormatInt(cur+1, 10)))
			}
		})
	}
	return finish(cloud, table, &wg, func(v []byte) int64 {
		n, _ := strconv.ParseInt(string(v), 10, 64)
		return n
	})
}

// runCRDT: the same traffic, but the shared state is a G-Counter and
// writes go through compare-and-swap with merge-on-retry.
func runCRDT(seed uint64) int64 {
	cloud, table := setup(seed)
	defer cloud.Close()
	var wg sim.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		node := cloud.Net.NewNode(fmt.Sprintf("fn-%d", w), 1, netsim.Mbps(538))
		replica := fmt.Sprintf("r%d", w)
		wg.Add(1)
		cloud.K.Spawn("worker", func(p *sim.Proc) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				for {
					counter := crdt.NewGCounter()
					var ver int64
					item, err := table.Get(p, node, "count", false)
					if err == nil {
						if c, derr := crdt.UnmarshalGCounter(item.Value); derr == nil {
							counter = c
						}
						ver = item.Version
					} else if !errors.Is(err, kvstore.ErrNotFound) {
						return
					}
					counter.Inc(replica, 1)
					if _, err := table.ConditionalPut(p, node, "count", crdt.Marshal(counter), ver); err == nil {
						break
					}
					p.Sleep(time.Duration(5+w) * time.Millisecond)
				}
			}
		})
	}
	return finish(cloud, table, &wg, func(v []byte) int64 {
		c, err := crdt.UnmarshalGCounter(v)
		if err != nil {
			return -1
		}
		return c.Value()
	})
}

func setup(seed uint64) (*core.Cloud, *kvstore.Store) {
	cloud := core.NewCloud(seed)
	return cloud, cloud.DDB
}

func finish(cloud *core.Cloud, table *kvstore.Store, wg *sim.WaitGroup,
	decode func([]byte) int64) int64 {
	var total int64 = -1
	cloud.K.Spawn("reader", func(p *sim.Proc) {
		wg.Wait(p)
		p.Sleep(time.Second)
		node := cloud.Net.NewNode("final-reader", 0, netsim.Gbps(10))
		if item, err := table.Get(p, node, "count", true); err == nil {
			total = decode(item.Value)
		}
	})
	cloud.K.RunUntil(sim.Time(time.Hour))
	return total
}
