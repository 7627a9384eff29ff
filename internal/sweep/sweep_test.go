package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestPointsOrderedResults: results land in point-index order at every
// worker count, regardless of completion order.
func TestPointsOrderedResults(t *testing.T) {
	for _, w := range []int{1, 2, 3, 8, 64} {
		got := PointsN(w, 17, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("w=%d: point %d = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// TestPointsWorkerCountInvariance: a pure point function yields identical
// result slices at every worker count — the property the experiment
// goldens lean on.
func TestPointsWorkerCountInvariance(t *testing.T) {
	run := func(w int) []string {
		return PointsN(w, 23, func(i int) string {
			return fmt.Sprintf("point-%02d:%d", i, i*2654435761)
		})
	}
	want := run(1)
	for _, w := range []int{2, 4, 7, 23, 100} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("w=%d diverged at point %d: %q != %q", w, i, got[i], want[i])
			}
		}
	}
}

// TestPointsBoundedConcurrency: no more than `workers` points are in
// flight at once.
func TestPointsBoundedConcurrency(t *testing.T) {
	const workers = 4
	var live, peak atomic.Int64
	var mu sync.Mutex
	PointsN(workers, 64, func(i int) int {
		n := live.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		defer live.Add(-1)
		runtime.Gosched()
		return i
	})
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight points = %d, want <= %d", p, workers)
	}
}

// TestPointsPanicContext: a panicking point surfaces as a *PointError on
// the caller's goroutine carrying the point index, the original value,
// and a worker stack.
func TestPointsPanicContext(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				pe, ok := r.(*PointError)
				if !ok {
					t.Fatalf("w=%d: recovered %T (%v), want *PointError", w, r, r)
				}
				if pe.Point != 5 {
					t.Errorf("w=%d: point = %d, want 5", w, pe.Point)
				}
				if !errors.Is(pe, boom) {
					t.Errorf("w=%d: Unwrap lost the original error: %v", w, pe.Value)
				}
				if !strings.Contains(pe.Stack, "sweep") {
					t.Errorf("w=%d: stack not captured: %q", w, pe.Stack)
				}
				if !strings.Contains(pe.Error(), "point 5") {
					t.Errorf("w=%d: Error() = %q, want point context", w, pe.Error())
				}
			}()
			PointsN(w, 8, func(i int) int {
				if i == 5 {
					panic(boom)
				}
				return i
			})
		}()
	}
}

// panicAtFive is a sweep point that panics at index 5.
func panicAtFive(i int) int {
	if i == 5 {
		panic("boom")
	}
	return i
}

// TestPointErrorShowsWorkerStack: the text of a re-raised *PointError,
// which the runtime prints when nothing recovers it, holds the worker's
// stack, so it names the function that panicked. The sequential path
// re-raises after that function has unwound, and the concurrent one from
// another goroutine, so only the captured stack can name it.
func TestPointErrorShowsWorkerStack(t *testing.T) {
	for _, w := range []int{1, 4} {
		func() {
			defer func() {
				pe, ok := recover().(*PointError)
				if !ok {
					t.Fatalf("w=%d: did not recover a *PointError", w)
				}
				if msg := pe.Error(); !strings.Contains(msg, "sweep.panicAtFive") {
					t.Errorf("w=%d: Error() does not name the panicking function:\n%s", w, msg)
				}
			}()
			PointsN(w, 8, panicAtFive)
		}()
	}
}

// TestPointsProcPanicContext: a panic inside a simulated process, which the
// kernel re-raises from RunUntil, surfaces as a *PointError naming the
// point and the process; the point's deferred Close still unwinds the
// kernel's other parked processes.
func TestPointsProcPanicContext(t *testing.T) {
	for _, w := range []int{1, 4} {
		var unwound [8]int
		func() {
			defer func() {
				pe, ok := recover().(*PointError)
				if !ok {
					t.Fatalf("w=%d: did not recover a *PointError", w)
				}
				if pe.Point != 5 {
					t.Errorf("w=%d: point = %d, want 5", w, pe.Point)
				}
				if v := fmt.Sprint(pe.Value); !strings.Contains(v, `"bomber"`) || !strings.Contains(v, "boom") {
					t.Errorf("w=%d: Value = %q, want the process name and panic", w, v)
				}
			}()
			PointsN(w, 8, func(i int) int {
				k := sim.NewKernel()
				defer k.Close()
				var never sim.Signal
				for j := 0; j < 4; j++ {
					k.Spawn("parked", func(p *sim.Proc) {
						defer func() { unwound[i]++ }()
						never.Wait(p)
					})
				}
				if i == 5 {
					k.Spawn("bomber", func(p *sim.Proc) {
						p.Sleep(time.Second)
						panic("boom")
					})
				}
				k.Run()
				return i
			})
		}()
		if unwound[5] != 4 {
			t.Errorf("w=%d: Close unwound %d of 4 parked procs after the panic", w, unwound[5])
		}
	}
}

// TestPointsSequentialStopsAtPanic: at W=1 a panic halts the sweep, so
// later points never run — matching the pre-engine sequential loops.
func TestPointsSequentialStopsAtPanic(t *testing.T) {
	var ran atomic.Int64
	func() {
		defer func() { recover() }()
		PointsN(1, 8, func(i int) int {
			ran.Add(1)
			if i == 2 {
				panic("stop")
			}
			return i
		})
	}()
	if n := ran.Load(); n != 3 {
		t.Fatalf("ran %d points, want 3 (0,1,2)", n)
	}
}

// TestMapPassesItemsAndIndices: Map hands each point its item and index.
func TestMapPassesItemsAndIndices(t *testing.T) {
	items := []string{"a", "b", "c"}
	got := Map(items, func(i int, s string) string { return fmt.Sprintf("%d%s", i, s) })
	want := []string{"0a", "1b", "2c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Map[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestPointsEdgeCases: empty sweeps and over-provisioned worker counts.
func TestPointsEdgeCases(t *testing.T) {
	if got := PointsN(4, 0, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("empty sweep returned %v", got)
	}
	if got := PointsN(100, 2, func(i int) int { return i + 1 }); got[0] != 1 || got[1] != 2 {
		t.Fatalf("over-provisioned sweep returned %v", got)
	}
	if got := PointsN(0, 2, func(i int) int { return i }); got[1] != 1 {
		t.Fatalf("w=0 sweep returned %v", got)
	}
}

// TestWorkersOverride: SetWorkers takes precedence and 0 restores the
// default resolution.
func TestWorkersOverride(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if Workers() != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", Workers())
	}
	SetWorkers(0)
	if w := Workers(); w < 1 {
		t.Fatalf("default Workers() = %d, want >= 1", w)
	}
}
