package sim

// event is the payload of a scheduled wake-up. Its key, (at, seq), lives in
// the heap's order array beside the slot index (see entry); events are
// ordered by time, with the sequence number breaking ties so that events
// scheduled earlier (in program order) at the same virtual time run first.
// This total order is what makes the simulation deterministic.
//
// The payload is a tagged union: proc != nil means "resume this parked
// process" (the kernel steps it directly, no closure involved); otherwise fn
// is an arbitrary callback. Keeping the process wake-up path closure-free is
// what lets Sleep and the sync primitives run without allocating.
type event struct {
	fn   func()
	proc *Proc

	// pos is the event's index in the heap order array while scheduled.
	// While the slot is free it instead links the arena's free list (the
	// next free slot, or -1 at the end).
	pos int32
	// gen counts how many times this arena slot has been recycled; a Timer
	// snapshot of (slot, gen) stays valid only while they match, which is
	// what makes Stop safe after the event has fired.
	gen uint32
}

// entry is one position of the heap order array: a scheduled event's key
// and its arena slot.
type entry struct {
	at   Time
	seq  uint64
	slot int32
}

// before orders entries by (at, seq). Sequence numbers are unique, so no
// two entries tie.
func (e *entry) before(o *entry) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// eventHeap is an index-based 4-ary min-heap over event values.
//
// Events live in a flat arena and are addressed by slot index. The heap
// order array holds each event's key inline with its slot, so a sift
// compares and moves 24-byte entries within one array and touches the
// arena only to record a moved entry's new position. Freed slots are
// threaded onto an embedded free list (linked through event.pos) and
// recycled, so steady-state scheduling allocates nothing once the arena
// and order array have grown to the simulation's high-water mark of
// in-flight events.
//
// A 4-ary layout halves the tree depth of the binary heap it replaces;
// with the run queue absorbing same-time wake-ups, heap events are
// dominated by pushes and ordered pops where the shallower tree wins.
type eventHeap struct {
	arena []event
	order []entry
	free  int32 // head of the free-slot list, -1 when empty
}

const noSlot = -1

func newEventHeap() eventHeap { return eventHeap{free: noSlot} }

// len reports the number of scheduled events.
func (h *eventHeap) len() int { return len(h.order) }

// alloc returns a free arena slot, reusing the free list before growing.
func (h *eventHeap) alloc() int32 {
	if h.free != noSlot {
		s := h.free
		h.free = h.arena[s].pos
		return s
	}
	h.arena = append(h.arena, event{})
	return int32(len(h.arena) - 1)
}

// release returns slot s to the free list, dropping payload references and
// invalidating any Timer handles pointing at it.
func (h *eventHeap) release(s int32) {
	e := &h.arena[s]
	e.fn = nil
	e.proc = nil
	e.gen++
	e.pos = h.free
	h.free = s
}

// push schedules an event and returns its arena slot.
func (h *eventHeap) push(at Time, seq uint64, fn func(), proc *Proc) int32 {
	s := h.alloc()
	e := &h.arena[s]
	e.fn, e.proc = fn, proc
	i := int32(len(h.order))
	h.order = append(h.order, entry{})
	h.siftUp(i, entry{at: at, seq: seq, slot: s})
	return s
}

// pop unschedules the earliest event, recycles its slot and returns its
// payload. The heap must be non-empty. The hole left at the root sinks
// along the lesser children to a leaf, and the former last entry rises
// from there: usually not far, since it came from the bottom, so this
// costs about one compare per level fewer than sifting it down from the
// root.
func (h *eventHeap) pop() (fn func(), proc *Proc) {
	s := h.order[0].slot
	e := &h.arena[s]
	fn, proc = e.fn, e.proc
	n := int32(len(h.order)) - 1
	last := h.order[n]
	h.order = h.order[:n]
	if n > 0 {
		i := int32(0)
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			best := h.leastChild(first, n)
			h.order[i] = h.order[best]
			h.arena[h.order[i].slot].pos = i
			i = best
		}
		h.siftUp(i, last)
	}
	h.release(s)
	return fn, proc
}

// remove unschedules the event in slot s (which must be scheduled) in
// O(log n) and recycles the slot.
func (h *eventHeap) remove(s int32) { h.removeAt(h.arena[s].pos) }

// removeAt unschedules the event at heap position i.
func (h *eventHeap) removeAt(i int32) {
	n := int32(len(h.order)) - 1
	s := h.order[i].slot
	last := h.order[n]
	h.order = h.order[:n]
	if i < n {
		h.place(i, last)
	}
	h.release(s)
}

// update rekeys the event in slot s to (at, seq) and restores heap order.
func (h *eventHeap) update(s int32, at Time, seq uint64) {
	h.place(h.arena[s].pos, entry{at: at, seq: seq, slot: s})
}

// place puts e at heap position i, whose former entry has left or is e's
// old key, and moves it up or down to where it belongs.
func (h *eventHeap) place(i int32, e entry) {
	if i > 0 && e.before(&h.order[(i-1)/4]) {
		h.siftUp(i, e)
	} else {
		h.siftDown(i, e)
	}
}

// siftUp moves the hole at position i up past every ancestor that e
// precedes, then fills it with e.
func (h *eventHeap) siftUp(i int32, e entry) {
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h.order[parent]) {
			break
		}
		h.order[i] = h.order[parent]
		h.arena[h.order[i].slot].pos = i
		i = parent
	}
	h.order[i] = e
	h.arena[e.slot].pos = i
}

// siftDown moves the hole at position i down past every least child that
// precedes e, then fills it with e.
func (h *eventHeap) siftDown(i int32, e entry) {
	n := int32(len(h.order))
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := h.leastChild(first, n)
		if !h.order[best].before(&e) {
			break
		}
		h.order[i] = h.order[best]
		h.arena[h.order[i].slot].pos = i
		i = best
	}
	h.order[i] = e
	h.arena[e.slot].pos = i
}

// leastChild returns the position of the least of the children that start
// at position first, among the heap's first n entries.
func (h *eventHeap) leastChild(first, n int32) int32 {
	best := first
	for c := first + 1; c < min(first+4, n); c++ {
		if h.order[c].before(&h.order[best]) {
			best = c
		}
	}
	return best
}
