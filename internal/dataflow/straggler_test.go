package dataflow

import (
	"testing"
	"time"

	"repro/internal/recon"
	"repro/internal/sim"
)

func TestStragglerTrackerRoundTrip(t *testing.T) {
	st := NewStragglerTracker(64)
	for id := uint64(1); id <= 20; id++ {
		st.Dispatch(id)
	}
	for id := uint64(1); id <= 20; id++ {
		if id%5 != 0 {
			st.Complete(id)
		}
	}
	if st.Outstanding() != 4 {
		t.Fatalf("Outstanding = %d, want 4", st.Outstanding())
	}
	els, ok := st.Identify()
	if !ok {
		t.Fatalf("decode failed with 4 outstanding in 64 cells")
	}
	want := map[uint64]bool{recon.Mix(5): true, recon.Mix(10): true, recon.Mix(15): true, recon.Mix(20): true}
	if len(els) != 4 {
		t.Fatalf("identified %d elements, want 4", len(els))
	}
	for _, el := range els {
		if !want[el] {
			t.Errorf("unexpected element %#x", el)
		}
	}
}

func TestStragglerTrackerOverflowFailsDecode(t *testing.T) {
	st := NewStragglerTracker(8)
	for id := uint64(1); id <= 100; id++ {
		st.Dispatch(id)
	}
	if _, ok := st.Identify(); ok {
		t.Fatalf("decode succeeded with 100 outstanding in 8 cells")
	}
	// Draining restores decodability — the set only shrinks.
	for id := uint64(1); id <= 98; id++ {
		st.Complete(id)
	}
	if els, ok := st.Identify(); !ok || len(els) != 2 {
		t.Fatalf("after drain: ok=%v n=%d, want 2 decodable stragglers", ok, len(els))
	}
}

// executeIn runs the job's plan under pol in a fresh seed-9 fixture, so
// calls compared against each other see the same random draws.
func executeIn(t *testing.T, parts int, partBytes int64, ops []Op, pl Placement, workers int, pol StragglerPolicy) *Result {
	t.Helper()
	f := newFixture(t)
	plan := &PhysicalPlan{Job: makeJob(f.pf, parts, partBytes, ops), Placement: pl}
	ex := NewExecutor(f.pf)
	var res *Result
	f.k.Spawn("driver", func(p *sim.Proc) {
		var err error
		if res, err = ex.Execute(p, plan, workers, pol); err != nil {
			t.Errorf("Execute: %v", err)
		}
	})
	f.k.Run()
	if res == nil {
		t.Fatal("no result")
	}
	return res
}

// A 20×-slowed worker turns its partitions into stragglers; spare agents
// must rescue them and beat the no-rescue baseline's makespan, and a
// twin's duplicate completion must not count its output twice.
func TestExecuteSparesRescueStragglers(t *testing.T) {
	ops := []Op{mapOp(), filterOp()}
	run := func(spares int) *Result {
		res := executeIn(t, 8, 50e6, ops, ShipDataToCode, 4, StragglerPolicy{
			Patience: 200 * time.Millisecond,
			Spares:   spares,
			Slow: func(w int) float64 {
				if w == 0 {
					return 20
				}
				return 1
			},
		})
		if res.Partitions != 8 {
			t.Fatalf("Partitions = %d", res.Partitions)
		}
		return res
	}
	healthy := executeIn(t, 8, 50e6, ops, ShipDataToCode, 4, StragglerPolicy{})
	baseline := run(0)
	rescued := run(2)
	if baseline.Redispatched != 0 || baseline.Rescued != 0 {
		t.Errorf("baseline re-dispatched: %+v", baseline)
	}
	if rescued.Stragglers == 0 || rescued.Rescued == 0 {
		t.Errorf("rescue run found no stragglers: %+v", rescued)
	}
	if !rescued.DecodeOK {
		t.Errorf("IBF decode failed during rescue run")
	}
	if rescued.Elapsed >= baseline.Elapsed {
		t.Errorf("rescue did not improve makespan: baseline %v, rescued %v", baseline.Elapsed, rescued.Elapsed)
	}
	if rescued.OutputBytes != healthy.OutputBytes {
		t.Errorf("rescue output %d bytes, healthy run %d", rescued.OutputBytes, healthy.OutputBytes)
	}
}

// With healthy workers spares must stay idle and leave the makespan
// exactly as the zero policy's: the tracker adds bookkeeping, not time.
// Agents take 110-140ms to place and a partition here about 30-40ms, so
// the coordinator's 100ms poll finds work still queued, and its 200ms
// poll finds the queue drained but every outstanding partition dispatched
// less than 100ms before: it watches the run but never names a straggler.
func TestExecuteHealthySparesMatchPlain(t *testing.T) {
	for _, pl := range []Placement{ShipDataToCode, ShipCodeToData} {
		ops := []Op{mapOp()}
		plain := executeIn(t, 6, 20e6, ops, pl, 3, StragglerPolicy{})
		spared := executeIn(t, 6, 20e6, ops, pl, 3, StragglerPolicy{Patience: 100 * time.Millisecond, Spares: 2})
		if spared.Stragglers != 0 || spared.Redispatched != 0 {
			t.Errorf("%v: healthy run re-dispatched: %+v", pl, spared)
		}
		if spared.Elapsed != plain.Elapsed {
			t.Errorf("%v: makespan with spares %v, without %v", pl, spared.Elapsed, plain.Elapsed)
		}
		if spared.OutputBytes != plain.OutputBytes {
			t.Errorf("%v: output bytes differ: %d vs %d", pl, spared.OutputBytes, plain.OutputBytes)
		}
	}
}

// A straggler is named by its age. Worker 0 runs 20× slowed and holds one
// partition from its placement to the end of the job; the two healthy
// workers take the other six. Each healthy partition still in flight at a
// poll that finds the queue drained was dispatched less than Patience
// before it, so only the slowed partition is named, and the late healthy
// ones finish without a rescue copy. Naming every outstanding partition
// instead rescues two of them as well.
func TestExecuteLateDispatchNotRescued(t *testing.T) {
	res := executeIn(t, 7, 20e6, []Op{mapOp()}, ShipDataToCode, 3, StragglerPolicy{
		Patience: 100 * time.Millisecond,
		Spares:   2,
		Slow: func(w int) float64 {
			if w == 0 {
				return 20
			}
			return 1
		},
	})
	if res.Stragglers != 1 || res.Redispatched != 1 {
		t.Errorf("named %d and re-dispatched %d partitions, want only the slowed one: %+v",
			res.Stragglers, res.Redispatched, res)
	}
}
