// Election: the paper's §3.1 distributed-computing case study, live. The
// same bully protocol runs twice — once with every message forced through a
// DynamoDB blackboard polled at 4Hz (the only option on FaaS), once over
// direct addressable messaging — and prints both failover timelines.
//
//	go run ./examples/election
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/netsim"
	"repro/internal/sim"
)

const members = 5

func main() {
	seed := flag.Uint64("seed", 21, "simulation seed (direct-messaging run uses seed+1)")
	flag.Parse()
	if err := run(os.Stdout, *seed); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer, seed uint64) error {
	fmt.Fprintln(w, "bully leader election, 5 nodes, leader killed after things settle")
	bbRound, bbCost := onBlackboard(w, seed)
	directRound := onDirect(w, seed+1)
	fmt.Fprintf(w, "\nblackboard (DynamoDB, 4Hz polling): failover in %v, storage bill %v for the run\n",
		bbRound.Round(100*time.Millisecond), bbCost)
	fmt.Fprintf(w, "direct messaging:                   failover in %v\n",
		directRound.Round(time.Millisecond))
	fmt.Fprintf(w, "storage-mediated coordination is %.0fx slower\n",
		bbRound.Seconds()/directRound.Seconds())
	return nil
}

func agreed(nodes []*election.Node) int {
	leader := -1
	for _, n := range nodes {
		if n.Stopped() {
			continue
		}
		if n.Leader() < 0 {
			return -1
		}
		if leader == -1 {
			leader = n.Leader()
		} else if n.Leader() != leader {
			return -1
		}
	}
	return leader
}

func waitFor(k *sim.Kernel, horizon sim.Time, cond func() bool) {
	for t := k.Now(); t < horizon && !cond(); t += sim.Time(100 * time.Millisecond) {
		k.RunUntil(t)
	}
	if !cond() {
		panic("election example: no agreement within horizon")
	}
}

func onBlackboard(w io.Writer, seed uint64) (time.Duration, string) {
	cloud := core.NewCloud(seed)
	defer cloud.Close()
	bb := election.NewBlackboard(cloud.DDB, election.PaperParams())
	var nodes []*election.Node
	for id := 1; id <= members; id++ {
		host := cloud.Net.NewNode(fmt.Sprintf("fn-host-%d", id), 1, netsim.Mbps(538))
		n := election.NewNode(id, bb.ForNode(id, host), election.PaperParams())
		n.Start(cloud.K)
		nodes = append(nodes, n)
	}
	waitFor(cloud.K, sim.Time(3*time.Minute), func() bool { return agreed(nodes) == members })
	fmt.Fprintf(w, "  [blackboard] initial leader: node %d (after %v)\n",
		agreed(nodes), time.Duration(cloud.K.Now()).Round(time.Second))
	cloud.K.RunUntil(cloud.K.Now() + sim.Time(20*time.Second))

	crash := cloud.K.Now()
	nodes[members-1].Stop()
	waitFor(cloud.K, crash+sim.Time(2*time.Minute), func() bool {
		a := agreed(nodes)
		return a > 0 && a != members
	})
	round := time.Duration(cloud.K.Now() - crash)
	fmt.Fprintf(w, "  [blackboard] node %d crashed; node %d took over after %v\n",
		members, agreed(nodes), round.Round(100*time.Millisecond))
	return round, cloud.Meter.Total().String()
}

func onDirect(w io.Writer, seed uint64) time.Duration {
	cloud := core.NewCloud(seed)
	defer cloud.Close()
	ids := make([]int, members)
	for i := range ids {
		ids[i] = i + 1
	}
	dn := election.NewDirectNet(cloud.Mesh, election.DirectParams(), ids)
	var nodes []*election.Node
	for _, id := range ids {
		host := cloud.Net.NewNode(fmt.Sprintf("agent-host-%d", id), 0, netsim.Gbps(10))
		n := election.NewNode(id, dn.ForNode(id, host), election.DirectParams())
		n.Start(cloud.K)
		nodes = append(nodes, n)
	}
	waitFor(cloud.K, sim.Time(time.Minute), func() bool { return agreed(nodes) == members })
	fmt.Fprintf(w, "  [direct]     initial leader: node %d (after %v)\n",
		agreed(nodes), time.Duration(cloud.K.Now()).Round(time.Millisecond))
	cloud.K.RunUntil(cloud.K.Now() + sim.Time(2*time.Second))

	crash := cloud.K.Now()
	nodes[members-1].Stop()
	waitFor(cloud.K, crash+sim.Time(time.Minute), func() bool {
		a := agreed(nodes)
		return a > 0 && a != members
	})
	round := time.Duration(cloud.K.Now() - crash)
	fmt.Fprintf(w, "  [direct]     node %d crashed; node %d took over after %v\n",
		members, agreed(nodes), round.Round(time.Millisecond))
	return round
}
