package election

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/kvstore"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// DefaultRecordBytes is the serialized size of one node's blackboard record.
// With 1,000 nodes a full-board scan reads ~500KB ≈ 123 strongly consistent
// read units; at two reads per 250ms cycle this is what reproduces the
// paper's "$450 per hour at minimum" figure (derivation in EXPERIMENTS.md).
const DefaultRecordBytes = 500

// maxOutgoing bounds the outgoing-message slots kept in a record; receivers
// poll at 4 Hz, so slots recycle long before they overflow in practice.
const maxOutgoing = 12

// boardMsg is one outgoing message slot in a node's record.
type boardMsg struct {
	To   int     `json:"to"`
	Type MsgType `json:"type"`
	Term int64   `json:"term"`
	Seq  int64   `json:"seq"`
}

// boardRecord is a node's entry on the blackboard: heartbeat + outbox.
type boardRecord struct {
	ID   int        `json:"id"`
	Term int64      `json:"term"`
	HB   int64      `json:"hb"` // virtual nanoseconds of last heartbeat
	Msgs []boardMsg `json:"msgs"`
	Pad  string     `json:"pad"`
}

// coordRecord is the coordinator entry.
type coordRecord struct {
	Leader int   `json:"leader"`
	Term   int64 `json:"term"`
	HB     int64 `json:"hb"`
}

// Blackboard is the shared configuration for DynamoDB-mediated elections:
// one table, one record per node, one coordinator record, all communication
// via polling — the paper's only option on FaaS.
//
// Every node scans every record each polling cycle, but only the records
// written since the last cycle change, so the blackboard decodes each
// stored value once on the host and shares the result among its nodes.
// The simulated reads, their latency and their billing are unchanged.
type Blackboard struct {
	table  *kvstore.Store
	params Params
	boards map[string]*decoded[boardRecord] // by record key
	coord  decoded[coordRecord]
}

// NewBlackboard wraps a kvstore table as an election medium.
func NewBlackboard(table *kvstore.Store, params Params) *Blackboard {
	return &Blackboard{table: table, params: params,
		boards: make(map[string]*decoded[boardRecord])}
}

// decoded memoizes the JSON decode of one record key's stored value.
// kvstore's stored values are immutable (a write shares an equal stored
// copy or makes a new one, and never writes over either), so the same
// slice, the same first byte and the same length, always holds the same
// bytes, and the memo is valid exactly while the store hands it back.
// Holding val keeps its memory from being reused for another value.
// Versions cannot validate it: a deleted record rewritten starts over at
// version 1.
type decoded[T any] struct {
	val []byte
	rec T
	ok  bool // whether val decoded
}

// of returns the decode of val, decoding only when val is not the slice
// the memo holds. The zero memo holds the empty value, which never decodes.
func (d *decoded[T]) of(val []byte) (T, bool) {
	if len(val) != len(d.val) || (len(val) > 0 && &val[0] != &d.val[0]) {
		var rec T
		d.ok = json.Unmarshal(val, &rec) == nil
		d.val, d.rec = val, rec
	}
	return d.rec, d.ok
}

// board returns the decode of a node record read from the table.
func (b *Blackboard) board(it kvstore.Item) (boardRecord, bool) {
	d := b.boards[it.Key]
	if d == nil {
		d = new(decoded[boardRecord])
		b.boards[it.Key] = d
	}
	return d.of(it.Value)
}

// ForNode creates the per-node transport. caller is the network node the
// participant runs on (a Lambda VM in the paper's setup).
func (b *Blackboard) ForNode(id int, caller *netsim.Node) *BBTransport {
	return &BBTransport{
		bb:       b,
		id:       id,
		caller:   caller,
		lastSeen: make(map[int]int64),
	}
}

// BBTransport is one node's handle on the blackboard.
type BBTransport struct {
	bb     *Blackboard
	id     int
	caller *netsim.Node

	outgoing []boardMsg
	nextSeq  int64
	term     int64

	lastSeen  map[int]int64 // sender id -> last message seq consumed
	coordVer  int64         // version of the coord item last observed
	coordSeen coordRecord
}

func nodeKey(id int) string { return fmt.Sprintf("node/%06d", id) }

// writeRecord publishes this node's record (heartbeat + outbox) in one put.
func (t *BBTransport) writeRecord(p *sim.Proc, hbNanos int64) {
	rec := boardRecord{ID: t.id, Term: t.term, HB: hbNanos, Msgs: t.outgoing}
	data, err := json.Marshal(rec)
	if err != nil {
		panic("election: marshal board record: " + err.Error())
	}
	if pad := DefaultRecordBytes - len(data); pad > 0 {
		rec.Pad = strings.Repeat("x", pad)
		data, _ = json.Marshal(rec)
	}
	if _, err := t.bb.table.Put(p, t.caller, nodeKey(t.id), data); err != nil {
		panic("election: board put: " + err.Error())
	}
}

// Heartbeat implements Transport.
func (t *BBTransport) Heartbeat(p *sim.Proc, id int, term int64) {
	t.term = term
	t.writeRecord(p, int64(p.Now()))
}

// Send implements Transport: the message is written into this node's own
// record; the recipient discovers it on its next board scan.
func (t *BBTransport) Send(p *sim.Proc, from, to int, typ MsgType, term int64) {
	t.nextSeq++
	t.outgoing = append(t.outgoing, boardMsg{To: to, Type: typ, Term: term, Seq: t.nextSeq})
	if len(t.outgoing) > maxOutgoing {
		t.outgoing = t.outgoing[len(t.outgoing)-maxOutgoing:]
	}
	t.writeRecord(p, int64(p.Now()))
}

// Observe implements Transport: one board scan plus one coordinator read —
// the footnote's "2 reads per polling cycle".
func (t *BBTransport) Observe(p *sim.Proc, id int) View {
	now := int64(p.Now())
	stale := int64(t.bb.params.FailureTimeout)

	var view View
	for _, item := range t.bb.table.Scan(p, t.caller, "node/") {
		rec, ok := t.bb.board(item)
		if !ok {
			continue
		}
		view.Members = append(view.Members, rec.ID)
		if now-rec.HB < stale {
			view.Alive = append(view.Alive, rec.ID)
		}
		for _, m := range rec.Msgs {
			if m.To == id && m.Seq > t.lastSeen[rec.ID] {
				t.lastSeen[rec.ID] = m.Seq
				view.Inbox = append(view.Inbox, Message{Type: m.Type, From: rec.ID, Term: m.Term})
			}
		}
	}
	SortIDs(view.Alive)
	SortIDs(view.Members)

	item, err := t.bb.table.Get(p, t.caller, "coord", true)
	switch {
	case errors.Is(err, kvstore.ErrNotFound):
		t.coordVer = 0
	case err == nil:
		t.coordVer = item.Version
		if rec, ok := t.bb.coord.of(item.Value); ok {
			t.coordSeen = rec
			view.Coord = CoordView{
				Leader: rec.Leader,
				Term:   rec.Term,
				Fresh:  now-rec.HB < stale,
			}
		}
	}
	return view
}

// Claim implements Transport with a conditional put against the version
// observed this cycle: exactly one concurrent claimant wins.
func (t *BBTransport) Claim(p *sim.Proc, id int, term int64) bool {
	data, _ := json.Marshal(coordRecord{Leader: id, Term: term, HB: int64(p.Now())})
	item, err := t.bb.table.ConditionalPut(p, t.caller, "coord", data, t.coordVer)
	if err != nil {
		return false
	}
	t.coordVer = item.Version
	return true
}

// LeaderHeartbeat implements Transport: refresh the coordinator record,
// backing off silently if a newer claim superseded us.
func (t *BBTransport) LeaderHeartbeat(p *sim.Proc, id int, term int64) {
	data, _ := json.Marshal(coordRecord{Leader: id, Term: term, HB: int64(p.Now())})
	item, err := t.bb.table.ConditionalPut(p, t.caller, "coord", data, t.coordVer)
	if err == nil {
		t.coordVer = item.Version
	}
}

// Remove deletes this node's record (graceful departure; crash tests just
// stop heartbeating instead).
func (t *BBTransport) Remove(p *sim.Proc) {
	t.bb.table.Delete(p, t.caller, nodeKey(t.id))
}

var _ Transport = (*BBTransport)(nil)
