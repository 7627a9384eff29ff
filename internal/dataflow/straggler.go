package dataflow

// Straggler detection and re-dispatch. The coordinator tracks outstanding
// partitions with an invertible Bloom filter (the same primitive
// internal/recon uses for gossip): Dispatch folds a partition id in,
// Complete folds it out, and when progress stalls the coordinator decodes
// the filter against an empty one to *name* exactly the unfinished
// partitions — a constant-size summary instead of an O(partitions)
// scoreboard, the Eppstein–Goodrich trick applied to task tracking. Named
// stragglers are re-dispatched to spare agents; the first completion wins
// and duplicates are ignored, mirroring speculative execution in
// MapReduce-style runtimes.

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/future"
	"repro/internal/recon"
	"repro/internal/sim"
)

// StragglerTracker names unfinished work from a constant-size IBF summary.
type StragglerTracker struct {
	filter      *recon.Filter
	empty       *recon.Filter
	dec         recon.Decoder
	outstanding int
}

// NewStragglerTracker sizes the tracker for decoding up to ~cells/1.4
// simultaneous stragglers (the usual IBF decode margin).
func NewStragglerTracker(cells int) *StragglerTracker {
	return &StragglerTracker{filter: recon.New(cells), empty: recon.New(cells)}
}

// Dispatch records that partition id (1-based) is in flight.
func (st *StragglerTracker) Dispatch(id uint64) {
	st.filter.Add(recon.Mix(id))
	st.outstanding++
}

// Complete records that partition id finished.
func (st *StragglerTracker) Complete(id uint64) {
	st.filter.Remove(recon.Mix(id))
	st.outstanding--
}

// Outstanding counts in-flight partitions.
func (st *StragglerTracker) Outstanding() int { return st.outstanding }

// Identify decodes the summary into the sorted list of mixed in-flight
// elements (recon.Mix of each outstanding partition id), valid until the
// next call. ok is false when the outstanding set outgrew the filter's
// decode capacity — callers fall back to waiting (the set only shrinks).
func (st *StragglerTracker) Identify() (ids []uint64, ok bool) {
	ids, _, ok = st.dec.Decode(st.filter, st.empty)
	if !ok {
		return nil, false
	}
	slices.Sort(ids)
	return ids, true
}

// trackerCells sizes Execute's straggler-tracker IBF.
const trackerCells = 64

// StragglerPolicy configures straggler handling for Execute. The zero
// value runs every worker at full speed and rescues nothing.
type StragglerPolicy struct {
	// Patience is the coordinator's poll interval (default 500ms): at
	// every poll that finds the work queue drained, each partition
	// outstanding for at least Patience is declared a straggler.
	Patience time.Duration
	// Spares is how many rescue agents re-dispatch uses (0 disables rescue
	// — the baseline that just waits for stragglers).
	Spares int
	// Slow returns the compute slowdown factor for a primary worker index
	// (nil or 1 = full speed). Rescue agents always run at full speed.
	Slow func(worker int) float64
}

// coordinate polls every Patience until the job is done or a worker
// fails. Once the work queue has drained, each partition outstanding for
// at least Patience gets one rescue copy on a spare full-speed agent, up
// to Spares*4 copies in all. A younger partition stays unnamed, so a
// later poll can still name it.
func (r *execution) coordinate(cp *sim.Proc, work *sim.Queue[uint64], pol StragglerPolicy) {
	if pol.Patience <= 0 {
		pol.Patience = 500 * time.Millisecond
	}
	byMixed := make(map[uint64]uint64, len(r.done))
	for id := uint64(1); id < uint64(len(r.done)); id++ {
		byMixed[recon.Mix(id)] = id
	}
	named := make([]bool, len(r.done))
	res := &r.res
	for r.err == nil && (r.tracker.Outstanding() > 0 || work.Len() > 0) {
		cp.Sleep(pol.Patience)
		if r.err != nil || work.Len() > 0 || r.tracker.Outstanding() == 0 {
			continue
		}
		ids, ok := r.tracker.Identify()
		if !ok {
			res.DecodeOK = false
			continue
		}
		for _, el := range ids {
			id := byMixed[el]
			if id == 0 || named[id] || cp.Now()-r.sent[id] < pol.Patience {
				continue
			}
			named[id] = true
			res.Stragglers++
			if res.Redispatched >= pol.Spares*4 {
				continue // budget: each spare handles a few rescues
			}
			res.Redispatched++
			r.spawn(cp, fmt.Sprintf("df-run%d-rescue%d", r.run, res.Redispatched), func(rp *sim.Proc, agent *future.Agent) {
				// A rescue failure is benign: the primary still runs.
				if first, err := r.partition(rp, agent, id, 1); err == nil && first {
					res.Rescued++
				}
			})
		}
	}
}
