package election

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/simrand"
)

// TestChaosRandomCrashesAndRecoveries subjects a direct-transport cluster
// to a random crash/restart schedule and checks the protocol's safety and
// liveness invariants throughout:
//
//   - safety: no two running nodes ever claim leadership of the same term;
//   - liveness: whenever the cluster is left undisturbed, it converges on
//     the highest live node.
func TestChaosRandomCrashesAndRecoveries(t *testing.T) {
	const members = 7
	c := newDirectCluster(t, members)
	rng := simrand.New(2026)

	if !runUntil(c.k, sim.Time(10*time.Second), sim.Time(10*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == members
	}) {
		t.Fatal("initial agreement failed")
	}

	checkSafety := func() {
		leaders := map[int64][]int{}
		for _, n := range c.nodes {
			if !n.Stopped() && n.state == Leader {
				leaders[n.term] = append(leaders[n.term], n.ID())
			}
		}
		for term, ids := range leaders {
			if len(ids) > 1 {
				t.Fatalf("safety violation: term %d has leaders %v", term, ids)
			}
		}
	}

	highestAlive := func() int {
		best := -1
		for _, n := range c.nodes {
			if !n.Stopped() && n.ID() > best {
				best = n.ID()
			}
		}
		return best
	}

	for round := 0; round < 12; round++ {
		// Random disturbance: crash a random running node (keeping at
		// least two alive) or restart a random stopped one.
		var running, stopped []int
		for i, n := range c.nodes {
			if n.Stopped() {
				stopped = append(stopped, i)
			} else {
				running = append(running, i)
			}
		}
		switch {
		case len(stopped) > 0 && (len(running) <= 2 || rng.Float64() < 0.4):
			i := stopped[rng.Intn(len(stopped))]
			// A restarted node needs a fresh transport (its endpoint
			// was closed on crash).
			c.trs[i] = c.trs[i].net.ForNode(c.nodes[i].ID(), c.trs[i].ep.Node())
			c.nodes[i] = NewNode(c.nodes[i].ID(), c.trs[i], DirectParams())
			c.nodes[i].Start(c.k)
		default:
			i := running[rng.Intn(len(running))]
			c.nodes[i].Stop()
			c.trs[i].Close()
		}

		// Step through the disturbance, checking safety continuously.
		for step := 0; step < 100; step++ {
			c.k.RunUntil(c.k.Now() + sim.Time(10*time.Millisecond))
			checkSafety()
		}

		// Quiet period: the cluster must converge on the highest
		// live node.
		want := highestAlive()
		if !runUntil(c.k, c.k.Now()+sim.Time(30*time.Second), sim.Time(10*time.Millisecond), func() bool {
			return agreedLeader(c.nodes) == want
		}) {
			t.Fatalf("round %d: no convergence on node %d; leaders %v",
				round, want, leadersOf(c.nodes))
		}
		checkSafety()
	}
}

// TestChaosBlackboardLeaderChurn drives repeated failovers on the
// blackboard transport and verifies convergence and bounded round times
// every time (a long-running soak of the paper's case-study path).
func TestChaosBlackboardLeaderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	c := newBlackboardCluster(t, 5)
	if !runUntil(c.k, sim.Time(2*time.Minute), sim.Time(250*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 5
	}) {
		t.Fatal("initial agreement failed")
	}
	// Walk leadership down the id space, then restart everyone.
	for round := 0; round < 3; round++ {
		c.k.RunUntil(c.k.Now() + sim.Time(30*time.Second))
		leader := agreedLeader(c.nodes)
		var leaderNode *Node
		for _, n := range c.nodes {
			if n.ID() == leader {
				leaderNode = n
			}
		}
		crashAt := c.k.Now()
		leaderNode.Stop()
		if !runUntil(c.k, crashAt+sim.Time(2*time.Minute), sim.Time(250*time.Millisecond), func() bool {
			a := agreedLeader(c.nodes)
			return a > 0 && a != leader
		}) {
			t.Fatalf("round %d: failover stalled", round)
		}
		roundTime := time.Duration(c.k.Now() - crashAt)
		if roundTime > 30*time.Second {
			t.Errorf("round %d took %v, want well under 30s", round, roundTime)
		}
	}
	// Revive the fallen; the original highest must bully back.
	for _, n := range c.nodes {
		if n.Stopped() {
			n.Restart(c.k)
		}
	}
	if !runUntil(c.k, c.k.Now()+sim.Time(3*time.Minute), sim.Time(250*time.Millisecond), func() bool {
		return agreedLeader(c.nodes) == 5
	}) {
		t.Fatalf("restarted cluster did not re-elect node 5; leaders %v", leadersOf(c.nodes))
	}
}
