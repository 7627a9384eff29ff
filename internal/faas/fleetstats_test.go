package faas

// Direct table-driven coverage for the concurrency accounting and VM
// packing: per-function high-water marks were previously only read through
// the faasscale experiment, where a bookkeeping regression shows up as a
// golden diff rather than a pointed unit failure.

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// fleetSnap is what the tests read of the serving fleet.
type fleetSnap struct {
	vms        int // VMCount
	containers int // container slots in use across those VMs
	warmIdle   int // WarmIdle summed over the waves' functions
}

// runWaves registers one holding function per named wave and invokes each
// wave's count concurrently, waves back to back (each waits for the
// previous to finish). Handlers hold for 2s of virtual time so a wave's
// invocations overlap each other but not the next wave's. The returned
// snapshot is taken the instant the last wave returns — before the
// warm-pool reaper starts emptying the fleet.
func runWaves(t *testing.T, f *fixture, waves [][2]any) fleetSnap {
	t.Helper()
	const hold = 2 * time.Second
	for _, w := range waves {
		name := w[0].(string)
		if err := f.pf.Register(Function{
			Name: name, MemoryMB: 512, Timeout: time.Minute,
			Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
				ctx.Proc().Sleep(hold)
				return nil, nil
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	done := false
	var snap fleetSnap
	f.k.Spawn("driver", func(p *sim.Proc) {
		for _, w := range waves {
			name, n := w[0].(string), w[1].(int)
			var wg sim.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				p.Spawn("call/"+name, func(cp *sim.Proc) {
					defer wg.Done()
					if _, _, err := f.pf.Invoke(cp, name, nil); err != nil {
						t.Errorf("invoke %s: %v", name, err)
					}
				})
			}
			wg.Wait(p)
		}
		snap.vms = f.pf.VMCount()
		for _, vm := range f.pf.vms {
			snap.containers += vm.containers
		}
		for _, w := range waves {
			snap.warmIdle += f.pf.WarmIdle(w[0].(string))
		}
		done = true
	})
	f.k.RunUntil(sim.Time(time.Hour))
	if !done {
		t.Fatal("waves did not finish")
	}
	return snap
}

func TestFleetStatsHighWaterMarks(t *testing.T) {
	cases := []struct {
		name         string
		waves        [][2]any // function name, concurrent invocations
		wantFnPeak   map[string]int
		wantActiveVM int // ceil(largest wave / ContainersPerVM) with 20/VM
	}{
		{
			name:         "single wave",
			waves:        [][2]any{{"a", 7}},
			wantFnPeak:   map[string]int{"a": 7},
			wantActiveVM: 1,
		},
		{
			name:         "later smaller wave keeps the mark",
			waves:        [][2]any{{"a", 12}, {"b", 5}},
			wantFnPeak:   map[string]int{"a": 12, "b": 5},
			wantActiveVM: 1,
		},
		{
			name:         "later larger wave raises the mark",
			waves:        [][2]any{{"a", 4}, {"b", 25}},
			wantFnPeak:   map[string]int{"a": 4, "b": 25},
			wantActiveVM: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, DefaultConfig())
			s := runWaves(t, f, tc.waves)
			for name, want := range tc.wantFnPeak {
				st, err := f.pf.Stats(name)
				if err != nil {
					t.Fatal(err)
				}
				if st.PeakConcurrency != want {
					t.Errorf("function %s PeakConcurrency = %d, want %d", name, st.PeakConcurrency, want)
				}
				if st.Invocations != int64(want) {
					t.Errorf("function %s Invocations = %d, want %d", name, st.Invocations, want)
				}
			}
			if s.vms != tc.wantActiveVM {
				t.Errorf("VMCount = %d, want %d (20 containers pack per VM)", s.vms, tc.wantActiveVM)
			}
			// Nothing in flight: every container in use is idle-warm.
			if s.containers != s.warmIdle {
				t.Errorf("containers = %d but WarmIdle = %d with nothing in flight", s.containers, s.warmIdle)
			}
		})
	}
}
