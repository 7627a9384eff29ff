// Package recon implements invertible-Bloom-filter (IBF) set
// reconciliation over 64-bit element digests, after Eppstein & Goodrich's
// straggler identification structure. Two parties each summarize a set of
// uint64 elements into a fixed cell array; subtracting one summary from
// the other cancels every shared element, and peeling the difference
// recovers exactly the symmetric difference — so the bytes exchanged are
// proportional to the filter size, not the set size.
//
// A Filter is maintained incrementally: Add and Remove are O(k) XOR/count
// updates, so a replica can keep a live summary of a million-element set
// and ship it without ever walking the set. Decode succeeds with high
// probability while the symmetric difference stays below roughly half the
// cell count; callers must treat a false ok as "summary too small" and
// escalate (bigger filter, or a full exchange) — correctness never
// depends on decode success.
package recon

// hashCount is k, the number of cells each element occupies. Three
// partitioned positions is the standard IBF operating point: decode
// succeeds w.h.p. while the symmetric difference is below ~cells/1.3,
// and we size for cells ≥ 2× the expected difference.
const hashCount = 3

// CellWireBytes is the serialized size of one cell on the wire: two
// 64-bit XOR sums plus a 32-bit signed count.
const CellWireBytes = 20

// cell is one IBF bucket: a signed occupancy count, the XOR of every
// resident element, and the XOR of every resident element's check hash.
// A cell is "pure" (holds exactly one peelable element) when
// |count| == 1 and the hash sum matches the key sum's check hash.
type cell struct {
	keySum  uint64
	hashSum uint64
	count   int32
}

// Filter is an invertible Bloom filter over uint64 elements. The cell
// array is split into hashCount contiguous regions and each element maps
// to exactly one cell per region, which guarantees k distinct cells per
// element without rejection sampling.
type Filter struct {
	region int // cells per hash region
	cells  []cell
}

// New returns an empty filter with at least the requested number of
// cells, rounded up to a multiple of hashCount so the regions are equal.
func New(cells int) *Filter {
	if cells < hashCount {
		cells = hashCount
	}
	region := (cells + hashCount - 1) / hashCount
	return &Filter{region: region, cells: make([]cell, region*hashCount)}
}

// Cells reports the allocated cell count (after region rounding).
func (f *Filter) Cells() int { return len(f.cells) }

// WireBytes reports the filter's serialized transfer size.
func (f *Filter) WireBytes() int64 { return int64(len(f.cells)) * CellWireBytes }

// Mix is the splitmix64 finalizer: a cheap invertible 64-bit mix used to
// derive element digests and cell positions. Exported so callers can
// build well-distributed elements from structured inputs (key hash,
// state hash) without their own mixer.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// posSalt decorrelates the three per-region position hashes.
var posSalt = [hashCount]uint64{
	0x9e3779b97f4a7c15, // golden-ratio Weyl constant
	0xd1b54a32d192ed03,
	0x8cb92ba72f3d8dd7,
}

// pos returns element x's cell index within region i (the caller offsets
// by i*region to get the absolute index).
func pos(x uint64, i int, region int) int {
	return int(Mix(x^posSalt[i]) % uint64(region))
}

// checkHash is the purity checksum: derived from the element through a
// different mix path than the position hashes, so a cell whose XOR sums
// happen to collide positionally still fails the purity test w.h.p.
func checkHash(x uint64) uint64 {
	return Mix(x * 0xff51afd7ed558ccd)
}

// apply folds element x into (dir=+1) or out of (dir=-1) the filter.
func (f *Filter) apply(x uint64, dir int32) {
	h := checkHash(x)
	for i := 0; i < hashCount; i++ {
		c := &f.cells[i*f.region+pos(x, i, f.region)]
		c.count += dir
		c.keySum ^= x
		c.hashSum ^= h
	}
}

// Add folds element x into the filter.
func (f *Filter) Add(x uint64) { f.apply(x, 1) }

// Remove folds element x out of the filter. Removing an element that was
// never added is well-defined (counts go negative) and cancels a later
// Add — the filter is a pure XOR/count algebra.
func (f *Filter) Remove(x uint64) { f.apply(x, -1) }

// pure reports whether the cell holds exactly one recoverable element.
func pure(c *cell) bool {
	return (c.count == 1 || c.count == -1) && c.hashSum == checkHash(c.keySum)
}

// Decoder peels the difference of two filters. It owns reusable scratch
// (the subtracted cell array, the peel worklist, the output element
// slices), so a steady-state decode of two equal filters performs zero
// allocations. A Decoder is single-goroutine scratch, like the caller's
// other per-replica buffers.
type Decoder struct {
	diff   []cell
	queue  []int32
	onlyA  []uint64
	onlyB  []uint64
	region int
}

// Decode subtracts b from a cell-wise and peels the result. On success
// (ok true) onlyA holds every element present in a but not b, and onlyB
// the reverse; shared elements cancel in the subtraction and never
// surface. On failure (ok false) the difference was too large for the
// cell count — the partial slices are still returned (every peeled
// element is genuine w.h.p.) but the caller must not treat them as
// complete. Both filters must have the same cell geometry. The returned
// slices are the decoder's scratch, valid until the next Decode.
func (d *Decoder) Decode(a, b *Filter) (onlyA, onlyB []uint64, ok bool) {
	if a.region != b.region || len(a.cells) != len(b.cells) {
		panic("recon: decoding filters with different cell geometry")
	}
	d.region = a.region
	if cap(d.diff) < len(a.cells) {
		d.diff = make([]cell, len(a.cells))
	}
	d.diff = d.diff[:len(a.cells)]
	d.queue = d.queue[:0]
	d.onlyA = d.onlyA[:0]
	d.onlyB = d.onlyB[:0]
	for i := range d.diff {
		ca, cb := &a.cells[i], &b.cells[i]
		dc := &d.diff[i]
		dc.keySum = ca.keySum ^ cb.keySum
		dc.hashSum = ca.hashSum ^ cb.hashSum
		dc.count = ca.count - cb.count
		if pure(dc) {
			d.queue = append(d.queue, int32(i))
		}
	}
	for len(d.queue) > 0 {
		i := d.queue[len(d.queue)-1]
		d.queue = d.queue[:len(d.queue)-1]
		c := &d.diff[i]
		if !pure(c) {
			continue // consumed by an earlier peel since being queued
		}
		x := c.keySum
		dir := -c.count
		if c.count == 1 {
			d.onlyA = append(d.onlyA, x)
		} else {
			d.onlyB = append(d.onlyB, x)
		}
		h := checkHash(x)
		for j := 0; j < hashCount; j++ {
			idx := int32(j*d.region + pos(x, j, d.region))
			cc := &d.diff[idx]
			cc.count += dir
			cc.keySum ^= x
			cc.hashSum ^= h
			if pure(cc) {
				d.queue = append(d.queue, idx)
			}
		}
	}
	ok = true
	for i := range d.diff {
		if d.diff[i] != (cell{}) {
			ok = false
			break
		}
	}
	return d.onlyA, d.onlyB, ok
}
