// Package sweep fans independent experiment sweep points across worker
// goroutines so multi-point experiments (shard sweeps, provisioned-
// concurrency sweeps, replicas × gossip grids, seed repetitions) use every
// core instead of running their points back to back on one kernel.
//
// The engine's contract is that parallelism is invisible in the output:
//
//   - Point isolation: each point must be a pure function of its index —
//     it builds its own sim.Kernel, derives its own RNG streams (see
//     simrand.Derive), and shares no mutable state with other points. All
//     repo experiments already have this shape: a sweep point assembles a
//     fresh core.Cloud from (seed, point parameters) alone.
//   - Ordered merge: results are returned in point-index order no matter
//     which worker finished first, so tables, goldens, and notes render
//     byte-identically to the sequential run at any worker count.
//   - Bounded residency: at most `workers` points (and therefore at most
//     that many live kernels) execute at once; a finished point's kernel
//     is torn down by the point body before the worker takes the next
//     index, and torn-down kernels return their process coroutines to
//     the cross-kernel pool for the next point to adopt.
//   - Panic context: a panic inside a point is captured with its point
//     index and worker stack and re-raised on the caller's goroutine as a
//     *PointError once in-flight points have drained, so a failed sweep
//     reports which configuration blew up instead of crashing the process
//     from an anonymous goroutine.
//
// The worker count defaults to GOMAXPROCS and can be overridden per
// process with SetWorkers (the faasbench -workers flag) or the
// SWEEP_WORKERS environment variable.
package sweep

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// override is the SetWorkers value; 0 means "not set".
var override atomic.Int64

// envWorkers parses SWEEP_WORKERS once; 0 means unset/invalid.
var envWorkers = sync.OnceValue(func() int {
	v := os.Getenv("SWEEP_WORKERS")
	if v == "" {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		return 0
	}
	return n
})

// Workers reports the worker count sweeps run at: the SetWorkers override
// if set, else SWEEP_WORKERS from the environment, else GOMAXPROCS.
func Workers() int {
	if n := int(override.Load()); n > 0 {
		return n
	}
	if n := envWorkers(); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// SetWorkers overrides the process-wide worker count; n <= 0 restores the
// environment/GOMAXPROCS default.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	override.Store(int64(n))
}

// PointError is a panic captured inside a sweep point, re-raised on the
// sweep caller's goroutine with the point's identity attached.
type PointError struct {
	Point int    // index of the point that panicked
	Value any    // the original panic value
	Stack string // the worker goroutine's stack at capture
}

// Error implements error.
func (e *PointError) Error() string {
	return fmt.Sprintf("sweep: point %d panicked: %v", e.Point, e.Value)
}

// Unwrap exposes an underlying error panic value to errors.Is/As.
func (e *PointError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Points runs fn for every point index in [0, n) on up to Workers()
// concurrent workers and returns the results in point-index order.
func Points[T any](n int, fn func(point int) T) []T {
	return PointsN(Workers(), n, fn)
}

// Map runs fn over every item of a sweep's configuration slice on up to
// Workers() concurrent workers, returning results in item order. fn
// receives the item's index alongside the item for seed derivation.
func Map[S, T any](items []S, fn func(point int, item S) T) []T {
	return PointsN(Workers(), len(items), func(i int) T { return fn(i, items[i]) })
}

// PointsN is Points at an explicit worker count (used by the determinism
// regression tests and the sequential benchmark twins).
func PointsN[T any](workers, n int, fn func(point int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}

	// fail holds the captured panic with the lowest point index; after a
	// panic the sweep stops issuing new points, drains in-flight ones, and
	// re-raises deterministically from the caller's goroutine.
	var (
		failMu sync.Mutex
		fail   *PointError
	)
	failed := func() bool {
		failMu.Lock()
		defer failMu.Unlock()
		return fail != nil
	}
	runPoint := func(i int) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				failMu.Lock()
				if fail == nil || i < fail.Point {
					fail = &PointError{Point: i, Value: r, Stack: string(buf)}
				}
				failMu.Unlock()
				ok = false
			}
		}()
		out[i] = fn(i)
		return true
	}

	if workers == 1 {
		// Sequential fast path: identical point order and panic wrapping
		// as the concurrent path, with no goroutines to coordinate.
		for i := 0; i < n; i++ {
			if !runPoint(i) {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n || failed() {
						return
					}
					if !runPoint(i) {
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	if fail != nil {
		panic(fail)
	}
	return out
}
