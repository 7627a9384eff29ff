package election

import (
	"testing"
	"time"

	"repro/internal/kvstore"
	"repro/internal/msgnet"
	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// directCluster builds n nodes over the direct-messaging transport.
type directCluster struct {
	k     *sim.Kernel
	nodes []*Node
	trs   []*DirectTransport
}

func newDirectCluster(t *testing.T, n int) *directCluster {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(101)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	mesh := msgnet.NewMesh(net, rng.Fork())
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i + 1
	}
	dn := NewDirectNet(mesh, DirectParams(), ids)
	c := &directCluster{k: k}
	for _, id := range ids {
		node := net.NewNode(endpointName(id)+"/host", 0, netsim.Gbps(10))
		tr := dn.ForNode(id, node)
		nd := NewNode(id, tr, DirectParams())
		nd.Start(k)
		c.nodes = append(c.nodes, nd)
		c.trs = append(c.trs, tr)
	}
	return c
}

// runUntil advances the kernel until cond holds or the deadline passes.
func runUntil(k *sim.Kernel, deadline sim.Time, step sim.Time, cond func() bool) bool {
	for t := step; t <= deadline; t += step {
		k.RunUntil(t)
		if cond() {
			return true
		}
	}
	return false
}

// agreedLeader returns the common leader among running nodes, or -1.
func agreedLeader(nodes []*Node) int {
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

func TestDirectInitialElectionPicksHighest(t *testing.T) {
	c := newDirectCluster(t, 5)
	ok := runUntil(c.k, sim.Time(5*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 5
	})
	if !ok {
		t.Fatalf("no agreement on node 5; leaders: %v", leadersOf(c.nodes))
	}
	if c.nodes[4].state != Leader {
		t.Errorf("node 5 state = %v, want leader", c.nodes[4].state)
	}
	for _, n := range c.nodes[:4] {
		if n.state == Leader {
			t.Errorf("node %d also thinks it leads", n.ID())
		}
	}
}

func leadersOf(nodes []*Node) []int {
	out := make([]int, len(nodes))
	for i, n := range nodes {
		out[i] = n.Leader()
	}
	return out
}

func TestDirectFailoverToNextHighest(t *testing.T) {
	c := newDirectCluster(t, 5)
	if !runUntil(c.k, sim.Time(5*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 5
	}) {
		t.Fatal("initial election failed")
	}
	// Crash the leader.
	c.nodes[4].Stop()
	c.trs[4].Close()
	if !runUntil(c.k, sim.Time(30*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 4
	}) {
		t.Fatalf("no failover to node 4; leaders: %v", leadersOf(c.nodes))
	}
}

func TestDirectRestartBulliesItsWayBack(t *testing.T) {
	c := newDirectCluster(t, 3)
	if !runUntil(c.k, sim.Time(5*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 3
	}) {
		t.Fatal("initial election failed")
	}
	c.nodes[2].Stop()
	c.trs[2].Close()
	if !runUntil(c.k, sim.Time(30*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes[:2]) == 2
	}) {
		t.Fatal("failover to node 2 failed")
	}
	// Node 3 comes back and must retake leadership (the bully rule).
	rng := simrand.New(7)
	_ = rng
	// Reopen a fresh endpoint for node 3 on a new transport.
	c.trs[2] = c.trs[2].net.ForNode(3, c.trs[0].ep.Node()) // reuse a host node
	c.nodes[2] = NewNode(3, c.trs[2], DirectParams())
	c.nodes[2].Start(c.k)
	if !runUntil(c.k, sim.Time(60*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 3
	}) {
		t.Fatalf("node 3 did not reclaim leadership; leaders: %v", leadersOf(c.nodes))
	}
}

func TestDirectElectionIsFast(t *testing.T) {
	c := newDirectCluster(t, 5)
	runUntil(c.k, sim.Time(5*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 5
	})
	c.k.RunUntil(sim.Time(10 * time.Second)) // settle
	crashAt := c.k.Now()
	c.nodes[4].Stop()
	c.trs[4].Close()
	if !runUntil(c.k, crashAt+sim.Time(20*time.Second), sim.Time(time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 4
	}) {
		t.Fatal("failover did not complete")
	}
	round := time.Duration(c.k.Now() - crashAt)
	// Direct-messaging elections complete in well under a second —
	// the contrast with the blackboard's ~16.7s.
	if round > time.Second {
		t.Errorf("direct election took %v, want sub-second", round)
	}
}

// blackboardCluster builds n nodes over a DynamoDB-style blackboard.
type blackboardCluster struct {
	k     *sim.Kernel
	bb    *Blackboard
	meter *pricing.Meter
	nodes []*Node
}

func newBlackboardCluster(t *testing.T, n int) *blackboardCluster {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(55)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	table := kvstore.New("ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(),
		pricing.Fall2018(), meter)
	bb := NewBlackboard(table, PaperParams())
	c := &blackboardCluster{k: k, bb: bb, meter: meter}
	for id := 1; id <= n; id++ {
		host := net.NewNode(nodeKey(id)+"/host", 1, netsim.Mbps(538))
		nd := NewNode(id, bb.ForNode(id, host), PaperParams())
		nd.Start(k)
		c.nodes = append(c.nodes, nd)
	}
	return c
}

func TestBlackboardInitialElection(t *testing.T) {
	c := newBlackboardCluster(t, 4)
	ok := runUntil(c.k, sim.Time(60*time.Second), sim.Time(250*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 4
	})
	if !ok {
		t.Fatalf("no agreement; leaders: %v", leadersOf(c.nodes))
	}
}

func TestBlackboardFailoverTakesTensOfSeconds(t *testing.T) {
	c := newBlackboardCluster(t, 4)
	if !runUntil(c.k, sim.Time(60*time.Second), sim.Time(250*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 4
	}) {
		t.Fatal("initial election failed")
	}
	c.k.RunUntil(sim.Time(90 * time.Second)) // settle into steady state
	crashAt := c.k.Now()
	c.nodes[3].Stop()
	if !runUntil(c.k, crashAt+sim.Time(120*time.Second), sim.Time(100*time.Millisecond), func() bool {
		return agreedLeader(c.nodes[:3]) == 3
	}) {
		t.Fatalf("no failover; leaders: %v", leadersOf(c.nodes[:3]))
	}
	round := time.Duration(c.k.Now() - crashAt)
	// The paper measures 16.7s per round with 4Hz polling; accept a
	// band around it here (the experiment pins it more tightly).
	if round < 12*time.Second || round > 22*time.Second {
		t.Errorf("blackboard election round = %v, paper reports 16.7s", round)
	}
}

func TestBlackboardSingleLeaderPerTerm(t *testing.T) {
	c := newBlackboardCluster(t, 6)
	// Sample repeatedly while elections churn; no two running nodes may
	// claim leadership of the same term.
	for tMs := 500; tMs <= 90000; tMs += 500 {
		c.k.RunUntil(sim.Time(tMs) * sim.Time(time.Millisecond))
		leaders := map[int64][]int{}
		for _, n := range c.nodes {
			if n.state == Leader {
				leaders[n.term] = append(leaders[n.term], n.ID())
			}
		}
		for term, ids := range leaders {
			if len(ids) > 1 {
				t.Fatalf("term %d has %d leaders: %v", term, len(ids), ids)
			}
		}
	}
}

func TestBlackboardSteadyStateReadsPerCycle(t *testing.T) {
	c := newBlackboardCluster(t, 3)
	// Reach steady state, then count read requests over a window.
	c.k.RunUntil(sim.Time(60 * time.Second))
	c.meter.Reset()
	c.k.RunUntil(sim.Time(90 * time.Second))
	// 3 nodes x 4 cycles/s x 30s = 360 cycles; each cycle is one scan +
	// one get = 2 read requests... measured in units: small cluster so
	// scan = 1 unit; expect ~720 units plus heartbeat writes.
	units := c.meter.Count("dynamodb.read")
	if units < 600 || units > 850 {
		t.Errorf("read units over 30s = %d, want ~720 (2 reads/cycle/node)", units)
	}
	writes := c.meter.Count("dynamodb.write")
	// Heartbeats every 2s: 3 nodes x 15 = 45 writes, each 500B = 1 unit.
	if writes < 30 || writes > 120 {
		t.Errorf("write units over 30s = %d, want ~45-90", writes)
	}
}

func TestMsgTypeAndStateStrings(t *testing.T) {
	if MsgElection.String() != "ELECTION" || MsgOK.String() != "OK" ||
		MsgCoordinator.String() != "COORDINATOR" || MsgType(99).String() != "UNKNOWN" {
		t.Error("MsgType strings wrong")
	}
	if Follower.String() != "follower" || Leader.String() != "leader" ||
		Candidate.String() != "candidate" || Waiting.String() != "waiting" ||
		State(9).String() != "unknown" {
		t.Error("State strings wrong")
	}
}

func TestRestartHelper(t *testing.T) {
	c := newDirectCluster(t, 2)
	runUntil(c.k, sim.Time(5*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 2
	})
	n := c.nodes[0]
	n.Stop()
	c.k.RunUntil(c.k.Now() + sim.Time(time.Second))
	if !n.Stopped() {
		t.Fatal("Stop did not stop")
	}
	n.Restart(c.k)
	n.Restart(c.k) // restarting a running node is a no-op
	if n.Stopped() {
		t.Fatal("Restart did not revive")
	}
	if !runUntil(c.k, c.k.Now()+sim.Time(10*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return n.Leader() == 2
	}) {
		t.Error("restarted node never rejoined")
	}
}

// TestBlackboardMemoSurvivesDeleteAndRecreate: a record that is removed
// and written again restarts at version 1, the version the memo last saw
// for its key. The memo must still decode the new value, because it is
// validated by the stored slice, not by the version.
func TestBlackboardMemoSurvivesDeleteAndRecreate(t *testing.T) {
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(55)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	table := kvstore.New("ddb", net, 9, rng.Fork(), kvstore.DefaultConfig(),
		pricing.Fall2018(), &pricing.Meter{})
	bb := NewBlackboard(table, PaperParams())
	writer := bb.ForNode(1, net.NewNode("w", 1, netsim.Mbps(538)))
	reader := bb.ForNode(2, net.NewNode("r", 1, netsim.Mbps(538)))
	k.Spawn("c", func(p *sim.Proc) {
		writer.Heartbeat(p, 1, 3)
		if v := reader.Observe(p, 2); len(v.Members) != 1 || len(v.Inbox) != 0 {
			t.Fatalf("first view: %+v", v)
		}
		memo := bb.boards[nodeKey(1)]
		held := &memo.val[0]
		if v := reader.Observe(p, 2); len(v.Members) != 1 || &memo.val[0] != held {
			t.Fatalf("unchanged record re-decoded or lost: %+v", v)
		}

		writer.Remove(p)
		if v := reader.Observe(p, 2); len(v.Members) != 0 {
			t.Fatalf("removed record still a member: %+v", v)
		}
		writer.Send(p, 1, 2, MsgElection, 7) // rewrite at version 1
		it, err := table.Get(p, reader.caller, nodeKey(1), true)
		if err != nil || it.Version != 1 {
			t.Fatalf("rewritten record: %+v err %v", it, err)
		}
		v := reader.Observe(p, 2)
		want := Message{Type: MsgElection, From: 1, Term: 7}
		if len(v.Members) != 1 || len(v.Inbox) != 1 || v.Inbox[0] != want {
			t.Fatalf("view after rewrite at version 1 = %+v, want inbox [%+v]", v, want)
		}
		if rec, ok := bb.board(it); !ok || rec.Term != 3 || len(rec.Msgs) != 1 {
			t.Fatalf("memo holds %+v ok=%v for the rewritten record", rec, ok)
		}
	})
	k.Run()
}
