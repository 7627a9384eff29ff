// Package election implements Garcia-Molina's bully leader election, the
// protocol the paper uses to show that FaaS "stymies distributed computing".
//
// The protocol logic is transport-independent. Two transports mirror the
// paper's dual design patterns:
//
//   - Blackboard (blackboard.go): all communication through a DynamoDB-style
//     table, each node polling four times a second — the only option on
//     FaaS, where functions are not network-addressable. Rounds take tens
//     of seconds and every poll costs storage read units.
//   - Direct (direct.go): the same protocol over addressable messaging
//     (msgnet), the serverful baseline — rounds take milliseconds.
package election

import (
	"sort"
	"time"

	"repro/internal/sim"
)

// MsgType enumerates bully protocol messages.
type MsgType int

// Protocol message types. Heartbeats are transport-internal liveness
// carriers surfaced through View rather than the inbox.
const (
	MsgElection    MsgType = iota // "I am holding an election" (sent to higher ids)
	MsgOK                         // "a higher node is alive; stand down"
	MsgCoordinator                // "I am the coordinator" announcement
)

// String names the message type.
func (t MsgType) String() string {
	switch t {
	case MsgElection:
		return "ELECTION"
	case MsgOK:
		return "OK"
	case MsgCoordinator:
		return "COORDINATOR"
	default:
		return "UNKNOWN"
	}
}

// Message is one protocol message.
type Message struct {
	Type MsgType
	From int
	Term int64
}

// CoordView is a node's view of the current coordinator.
type CoordView struct {
	Leader int
	Term   int64
	Fresh  bool // heartbeat seen within the failure timeout
}

// View is everything one polling cycle reveals.
type View struct {
	Coord   CoordView
	Alive   []int // ids with fresh member heartbeats, sorted
	Members []int // all known member ids regardless of liveness, sorted
	Inbox   []Message
}

// Transport abstracts how protocol state moves between nodes. Each node
// owns its transport instance (transports hold per-node cursors).
type Transport interface {
	// Heartbeat publishes this node's liveness.
	Heartbeat(p *sim.Proc, id int, term int64)
	// LeaderHeartbeat refreshes the coordinator record (leaders only).
	LeaderHeartbeat(p *sim.Proc, id int, term int64)
	// Observe performs one polling cycle's reads.
	Observe(p *sim.Proc, id int) View
	// Send delivers a protocol message to one peer.
	Send(p *sim.Proc, from, to int, typ MsgType, term int64)
	// Claim atomically claims coordinatorship for the given term,
	// reporting whether the claim won.
	Claim(p *sim.Proc, id int, term int64) bool
}

// Params are the protocol's timing knobs.
type Params struct {
	// PollInterval is the cycle cadence (the paper: 4 polls per second).
	PollInterval time.Duration
	// HeartbeatPeriod is how often liveness is republished.
	HeartbeatPeriod time.Duration
	// FailureTimeout is how stale a heartbeat may be before its node is
	// presumed dead. Must be conservative relative to polling latency.
	FailureTimeout time.Duration
	// OKWait is how long a candidate waits for an OK from a higher node
	// before claiming coordinatorship.
	OKWait time.Duration
	// CoordWait is how long a stood-down candidate waits for a
	// COORDINATOR announcement before re-electing.
	CoordWait time.Duration
}

// PaperParams returns blackboard timings calibrated to the paper's
// measurement: 250ms polling (4 Hz) with conservative timeouts sized for a
// storage-polling network, landing a full election round at ~16.7s.
func PaperParams() Params {
	return Params{
		PollInterval:    250 * time.Millisecond,
		HeartbeatPeriod: 2 * time.Second,
		FailureTimeout:  13 * time.Second,
		OKWait:          4 * time.Second,
		CoordWait:       8 * time.Second,
	}
}

// DirectParams returns timings for the addressable-network transport, where
// round trips are ~300µs and timeouts can be three orders of magnitude
// tighter.
func DirectParams() Params {
	return Params{
		PollInterval:    5 * time.Millisecond,
		HeartbeatPeriod: 50 * time.Millisecond,
		FailureTimeout:  200 * time.Millisecond,
		OKWait:          50 * time.Millisecond,
		CoordWait:       150 * time.Millisecond,
	}
}

// State is a node's protocol state.
type State int

// Protocol states.
const (
	Follower State = iota
	Candidate
	Waiting // stood down after an OK, awaiting the new coordinator
	Leader
)

// String names the state.
func (s State) String() string {
	switch s {
	case Follower:
		return "follower"
	case Candidate:
		return "candidate"
	case Waiting:
		return "waiting"
	case Leader:
		return "leader"
	default:
		return "unknown"
	}
}

// Node is one bully participant.
type Node struct {
	id     int
	t      Transport
	params Params

	state  State
	term   int64
	leader int // -1 when unknown

	okDeadline    sim.Time
	coordDeadline sim.Time
	lastHB        sim.Time
	lastLeaderHB  sim.Time
	bullyPending  bool // hold an election on startup/recovery (bully rule)
	stopped       bool

	// Elections counts elections this node started (stats hook).
	Elections int
}

// NewNode creates a node; call Start to run it.
func NewNode(id int, t Transport, params Params) *Node {
	return &Node{id: id, t: t, params: params, leader: -1, bullyPending: true}
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Leader returns the node's current view of the coordinator (-1 if none).
func (n *Node) Leader() int { return n.leader }

// Stopped reports whether the node has been stopped (crashed).
func (n *Node) Stopped() bool { return n.stopped }

// Start spawns the node's polling loop on the kernel.
func (n *Node) Start(k *sim.Kernel) {
	k.Spawn("election-node", n.run)
}

// Stop models a crash: the node ceases heartbeating and polling. A stopped
// node can be restarted with Restart.
func (n *Node) Stop() { n.stopped = true }

// Restart revives a stopped node as a fresh follower that will bully its
// way back per the protocol. No experiment restarts a node; it is kept as
// a test oracle for rejoining after a crash (the chaos and restart tests).
func (n *Node) Restart(k *sim.Kernel) {
	if !n.stopped {
		return
	}
	n.stopped = false
	n.state = Follower
	n.leader = -1
	n.bullyPending = true
	n.lastHB = 0
	n.Start(k)
}

func (n *Node) run(p *sim.Proc) {
	for !n.stopped {
		n.cycle(p)
		p.Sleep(n.params.PollInterval)
	}
}

// cycle is one poll: publish liveness, observe, react.
func (n *Node) cycle(p *sim.Proc) {
	now := p.Now()
	if n.lastHB == 0 || now-n.lastHB >= n.params.HeartbeatPeriod {
		n.t.Heartbeat(p, n.id, n.term)
		n.lastHB = now
	}
	if n.state == Leader && now-n.lastLeaderHB >= n.params.HeartbeatPeriod {
		n.t.LeaderHeartbeat(p, n.id, n.term)
		n.lastLeaderHB = now
	}
	view := n.t.Observe(p, n.id)
	n.handle(p, view)
}

func (n *Node) handle(p *sim.Proc, view View) {
	now := p.Now()

	// Adopt a fresh coordinator record. A candidate only stands down to a
	// coordinator that outranks it — standing down to an inferior would
	// defeat the bully rule — but it still tracks the observed term so
	// its eventual claim supersedes the incumbent.
	if view.Coord.Fresh && view.Coord.Term >= n.term && view.Coord.Leader != n.id {
		switch n.state {
		case Candidate:
			if view.Coord.Leader > n.id {
				n.adopt(view.Coord)
			} else {
				n.term = view.Coord.Term
			}
		default:
			n.adopt(view.Coord)
		}
	}

	for _, msg := range view.Inbox {
		switch msg.Type {
		case MsgElection:
			// Only lower nodes address us with ELECTION. Assert
			// liveness and run our own election if we are not
			// already leading or electing.
			if msg.From < n.id {
				n.t.Send(p, n.id, msg.From, MsgOK, msg.Term)
				if n.state == Follower || n.state == Waiting {
					n.startElection(p, view)
				}
			}
		case MsgOK:
			if n.state == Candidate {
				n.state = Waiting
				n.coordDeadline = now + sim.Time(n.params.CoordWait)
			}
		case MsgCoordinator:
			if msg.Term > n.term || (msg.Term == n.term && msg.From >= n.leader) {
				n.term = msg.Term
				n.leader = msg.From
				if msg.From != n.id {
					n.state = Follower
				}
			}
		}
	}

	switch n.state {
	case Follower:
		switch {
		case !view.Coord.Fresh:
			n.startElection(p, view)
		case n.bullyPending && view.Coord.Leader < n.id:
			// Bully rule: a (re)started node that outranks the
			// sitting coordinator holds an election immediately.
			n.bullyPending = false
			n.startElection(p, view)
		case view.Coord.Leader >= n.id:
			n.bullyPending = false // the incumbent outranks us
		}
	case Candidate:
		if now >= n.okDeadline {
			n.claim(p, view)
		}
	case Waiting:
		if now >= n.coordDeadline && !view.Coord.Fresh {
			n.startElection(p, view)
		}
	case Leader:
		// Nothing periodic beyond heartbeats; a higher claimant is
		// adopted via the coordinator view above.
	}
}

// adopt accepts a coordinator record as current.
func (n *Node) adopt(c CoordView) {
	n.term = c.Term
	n.leader = c.Leader
	if n.leader != n.id {
		n.state = Follower
	}
}

// startElection sends ELECTION to every higher-priority member — live or
// not, per Garcia-Molina's protocol: liveness is discovered by whether an
// OK arrives before the timeout. Waiting out OKWait for dead superiors is
// a structural part of why storage-mediated elections are slow.
func (n *Node) startElection(p *sim.Proc, view View) {
	n.Elections++
	n.state = Candidate
	higher := 0
	for _, id := range view.Members {
		if id > n.id {
			n.t.Send(p, n.id, id, MsgElection, n.term)
			higher++
		}
	}
	if higher == 0 {
		// Nobody outranks us: claim on the next cycle.
		n.okDeadline = p.Now()
		return
	}
	n.okDeadline = p.Now() + sim.Time(n.params.OKWait)
}

// claim attempts to take coordinatorship at term+1.
func (n *Node) claim(p *sim.Proc, view View) {
	newTerm := n.term + 1
	if view.Coord.Term >= newTerm {
		newTerm = view.Coord.Term + 1
	}
	if !n.t.Claim(p, n.id, newTerm) {
		// Lost the race; the winner's record will be adopted.
		n.state = Follower
		return
	}
	n.term = newTerm
	n.leader = n.id
	n.state = Leader
	n.t.LeaderHeartbeat(p, n.id, n.term)
	n.lastLeaderHB = p.Now()
	for _, id := range view.Alive {
		if id != n.id {
			n.t.Send(p, n.id, id, MsgCoordinator, n.term)
		}
	}
}

// SortIDs sorts a member id slice in place and returns it (transport helper).
func SortIDs(ids []int) []int {
	sort.Ints(ids)
	return ids
}
