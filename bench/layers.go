package main

import (
	"math"
	"runtime"
	"strings"
)

// layers lists every layer a sample can be charged to, in report order:
// the Go runtime's goroutine handoff and garbage collector, the repo's
// packages that the workloads exercise, misc for every other repo
// package, and other for anything without a repo frame.
var layers = []string{
	"handoff", "gc", "sim", "netsim", "service", "kvstore", "statecache", "crdt",
	"faas", "queue", "resilience", "loadgen", "stats", "simrand", "pricing",
	"sweep", "core", "misc", "other",
}

const repoPrefix = "repro/internal/"

// gcFrames are the runtime's GC worker, sweeper and assist entry points; a
// sample with one anywhere on its stack is GC work.
var gcFrames = set(
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcAssistAlloc1",
	"runtime.gcDrain", "runtime.gcDrainN", "runtime.markroot", "runtime.scanobject",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
	"runtime.bgsweep", "runtime.sweepone", "runtime.(*sweepLocked).sweep",
	"runtime.deductSweepCredit", "runtime.bgscavenge", "runtime.wbBufFlush",
	"runtime._GC",
)

// schedFrames are the scheduler and channel functions that move control
// between goroutines: the cost of the simulator's process handoff.
var schedFrames = set(
	"runtime.chansend", "runtime.chansend1", "runtime.chanrecv", "runtime.chanrecv1",
	"runtime.chanrecv2", "runtime.selectgo", "runtime.closechan", "runtime.send",
	"runtime.recv", "runtime.gopark", "runtime.goparkunlock", "runtime.goready",
	"runtime.ready", "runtime.schedule", "runtime.findRunnable", "runtime.park_m",
	"runtime.mcall", "runtime.execute", "runtime.gogo", "gogo", "runtime.goexit0",
	"runtime.gosched_m", "runtime.Gosched", "runtime.goyield", "runtime.newproc",
	"runtime.newproc1", "runtime.wakep", "runtime.startm", "runtime.stopm",
	"runtime.mPark", "runtime.handoffp", "runtime.resetspinning", "runtime.stealWork",
	"runtime.runqget", "runtime.runqput", "runtime.runqsteal", "runtime.runqgrab",
	"runtime.globrunqget", "runtime.checkTimers", "runtime.netpoll", "runtime.sysmon",
	"runtime.futex", "runtime.futexsleep", "runtime.futexwakeup", "runtime.notesleep",
	"runtime.notewakeup", "runtime.notetsleep_internal", "runtime.lock2",
	"runtime.unlock2", "runtime.casgstatus", "runtime.usleep", "runtime.osyield",
	"runtime.semacquire1", "runtime.semrelease1",
)

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// classify charges a stack, innermost frame first, to one layer. GC work
// goes to gc wherever it sits. Otherwise the innermost repro/internal frame
// names the layer, so a layer's number is its self time, unless scheduler
// frames sit between it and the leaf (a channel handoff) or the stack has
// scheduler frames and no repo frame; both go to handoff. The runtime's
// allocator is not special: mallocgc under a repo frame is that layer's.
func classify(stack []string) string {
	for _, f := range stack {
		if gcFrames[f] {
			return "gc"
		}
	}
	sched := false
	for _, f := range stack {
		if pkg, ok := strings.CutPrefix(f, repoPrefix); ok {
			if sched {
				return "handoff"
			}
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			for _, l := range layers {
				if l == pkg {
					return l
				}
			}
			return "misc"
		}
		sched = sched || schedFrames[f]
	}
	if sched {
		return "handoff"
	}
	return "other"
}

// layerTotals is a profiled session's attribution, summed over its warm runs.
type layerTotals struct {
	CPUNs      map[string]int64   `json:"cpu_ns"`
	Samples    map[string]int64   `json:"samples"`
	AllocBytes map[string]float64 `json:"alloc_bytes"`
}

// cpuByLayer decodes a CPU profile and sums its samples by layer.
func cpuByLayer(profile []byte) (*layerTotals, error) {
	samples, err := decodeCPUProfile(profile)
	if err != nil {
		return nil, err
	}
	lt := &layerTotals{CPUNs: map[string]int64{}, Samples: map[string]int64{}}
	for _, s := range samples {
		l := classify(s.frames)
		lt.CPUNs[l] += s.ns
		lt.Samples[l] += s.count
	}
	return lt, nil
}

// allocByLayer sums the bytes allocated since the process started, as of
// the last completed GC, by layer. runtime.MemProfile samples one
// allocation per MemProfileRate bytes; each record is scaled back up the
// way runtime/pprof does.
func allocByLayer() map[string]float64 {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	out := map[string]float64{}
	var stack []string
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		stack = stack[:0]
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			avg := bytes / float64(r.AllocObjects)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		out[classify(stack)] += bytes
	}
	return out
}
