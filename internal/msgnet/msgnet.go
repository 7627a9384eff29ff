// Package msgnet implements direct, addressable point-to-point messaging
// between network endpoints — the ZeroMQ stand-in for the paper's
// "serverful" baselines, and the capability the paper points out FaaS
// functions lack (they are not network-addressable while running).
//
// Endpoints have stable names, per-endpoint mailboxes, fire-and-forget Send,
// blocking Recv, and an acked request/reply Call. Message delivery time is
// propagation delay plus store-and-forward serialization at the slower of
// the two NICs plus a small software overhead; messaging is latency-
// dominated, so (unlike bulk transfers, which go through netsim's fair-
// shared fabric) message serialization does not contend for NIC bandwidth.
package msgnet

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// ErrUnknownPeer is returned when sending to an unregistered or closed name.
var ErrUnknownPeer = errors.New("msgnet: unknown peer")

// ErrClosed is returned when receiving on a closed endpoint.
var ErrClosed = errors.New("msgnet: endpoint closed")

// softwareOverhead is the per-message send-side cost (serialize + syscall),
// applied on both directions of a Call.
const softwareOverhead = 2 * time.Microsecond

// Packet is a delivered message.
type Packet struct {
	From    string
	To      string
	Payload []byte

	// reqID correlates a Call with its reply; 0 for one-way sends.
	reqID   uint64
	isReply bool
}

// IsCall reports whether the packet expects a Reply.
func (pk Packet) IsCall() bool { return pk.reqID != 0 && !pk.isReply }

// Mesh is a namespace of endpoints that can message each other.
type Mesh struct {
	net       *netsim.Network
	rng       *simrand.RNG
	endpoints map[string]*Endpoint
	nextReq   uint64
}

// NewMesh creates an empty mesh over the given network.
func NewMesh(net *netsim.Network, rng *simrand.RNG) *Mesh {
	return &Mesh{net: net, rng: rng, endpoints: make(map[string]*Endpoint)}
}

// Endpoint registers a named endpoint bound to a network node (typically an
// EC2 instance's node). Names must be unique among live endpoints.
func (m *Mesh) Endpoint(name string, node *netsim.Node) *Endpoint {
	if _, dup := m.endpoints[name]; dup {
		panic("msgnet: duplicate endpoint " + name)
	}
	ep := &Endpoint{
		mesh:    m,
		name:    name,
		node:    node,
		inbox:   sim.NewQueue[Packet](),
		pending: make(map[uint64]*sim.Promise[[]byte]),
	}
	m.endpoints[name] = ep
	return ep
}

// Lookup returns the endpoint registered under name, or nil.
func (m *Mesh) Lookup(name string) *Endpoint { return m.endpoints[name] }

// Endpoint is a named, addressable mailbox.
type Endpoint struct {
	mesh    *Mesh
	name    string
	node    *netsim.Node
	inbox   *sim.Queue[Packet]
	pending map[uint64]*sim.Promise[[]byte]
	closed  bool
}

// Node returns the network node the endpoint is bound to.
func (e *Endpoint) Node() *netsim.Node { return e.node }

// deliveryDelay computes the one-way latency for a payload of size bytes.
func (m *Mesh) deliveryDelay(src, dst *netsim.Node, size int) time.Duration {
	d := m.net.OneWayDelay(src, dst)
	if size > 0 {
		bottleneck := src.NIC().Capacity()
		if c := dst.NIC().Capacity(); c < bottleneck {
			bottleneck = c
		}
		d += time.Duration(float64(size) / float64(bottleneck) * float64(time.Second))
	}
	return d
}

// Send delivers payload to the named endpoint, blocking the caller only for
// the send-side software overhead. Delivery happens after the network delay;
// sends to peers that close before delivery are dropped (like a TCP reset).
func (e *Endpoint) Send(p *sim.Proc, to string, payload []byte) error {
	return e.send(p, to, payload, 0, false)
}

func (e *Endpoint) send(p *sim.Proc, to string, payload []byte, reqID uint64, isReply bool) error {
	if e.closed {
		return ErrClosed
	}
	dst, ok := e.mesh.endpoints[to]
	if !ok || dst.closed {
		return fmt.Errorf("%w: %q", ErrUnknownPeer, to)
	}
	p.Sleep(softwareOverhead)
	pk := Packet{
		From:    e.name,
		To:      to,
		Payload: append([]byte(nil), payload...),
		reqID:   reqID,
		isReply: isReply,
	}
	delay := e.mesh.deliveryDelay(e.node, dst.node, len(payload))
	p.Kernel().After(delay, func() { dst.deliver(pk) })
	return nil
}

func (e *Endpoint) deliver(pk Packet) {
	if e.closed {
		return
	}
	if pk.isReply {
		if pr, ok := e.pending[pk.reqID]; ok {
			delete(e.pending, pk.reqID)
			pr.Resolve(pk.Payload)
		}
		return
	}
	e.inbox.Put(pk)
}

// Recv blocks until a message arrives, returning ErrClosed if the endpoint
// is closed while (or before) waiting.
func (e *Endpoint) Recv(p *sim.Proc) (Packet, error) {
	pk, ok := e.inbox.Get(p)
	if !ok {
		return Packet{}, ErrClosed
	}
	return pk, nil
}

// TryRecv returns a queued message without blocking.
func (e *Endpoint) TryRecv() (Packet, bool) {
	return e.inbox.TryGet()
}

// Call sends payload to the named endpoint and blocks until the peer
// replies (via Reply) or timeout elapses (timeout <= 0 waits forever).
// This is the acked round trip Table 1's ZeroMQ column measures.
func (e *Endpoint) Call(p *sim.Proc, to string, payload []byte, timeout time.Duration) ([]byte, error) {
	e.mesh.nextReq++
	reqID := e.mesh.nextReq
	pr := &sim.Promise[[]byte]{}
	e.pending[reqID] = pr
	if err := e.send(p, to, payload, reqID, false); err != nil {
		delete(e.pending, reqID)
		return nil, err
	}
	var tm *sim.Timer
	if timeout > 0 {
		// The pending-map guard stays even with a cancellable timer: a
		// timeout sharing the reply's timestamp is ordered before the
		// caller resumes, so Stop below can come too late to matter.
		tm = p.Kernel().AfterTimer(timeout, func() {
			if w, ok := e.pending[reqID]; ok && w == pr {
				delete(e.pending, reqID)
				pr.Resolve(nil)
			}
		})
	}
	reply := pr.Get(p)
	if tm != nil {
		tm.Stop() // answered (or timed out): drop the deadline event
	}
	if reply == nil {
		return nil, fmt.Errorf("msgnet: call to %q timed out after %v", to, timeout)
	}
	return reply, nil
}

// Reply answers a Call packet. Replying to a one-way packet is an error.
func (e *Endpoint) Reply(p *sim.Proc, call Packet, payload []byte) error {
	if !call.IsCall() {
		return errors.New("msgnet: Reply to a non-call packet")
	}
	if payload == nil {
		payload = []byte{}
	}
	return e.send(p, call.From, payload, call.reqID, true)
}

// Serve spawns a process that answers every incoming Call with
// handler(payload) until the endpoint closes. One-way packets are passed to
// handler too; the result is discarded.
func (e *Endpoint) Serve(handler func(p *sim.Proc, pk Packet) []byte) {
	e.mesh.net.Kernel().Spawn(e.name+"/server", func(p *sim.Proc) {
		for {
			pk, err := e.Recv(p)
			if err != nil {
				return
			}
			out := handler(p, pk)
			if pk.IsCall() {
				if err := e.Reply(p, pk, out); err != nil {
					return
				}
			}
		}
	})
}

// Close unregisters the endpoint. In-flight messages to it are dropped;
// pending Calls it issued fail immediately.
func (e *Endpoint) Close() {
	if e.closed {
		return
	}
	e.closed = true
	delete(e.mesh.endpoints, e.name)
	e.inbox.Close()
	for id, pr := range e.pending {
		delete(e.pending, id)
		pr.Resolve(nil)
	}
}
