package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost frame first
		want  string
	}{
		{"scheduler only", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, "handoff"},
		{"channel handoff under sim", []string{
			"runtime.chanrecv", "runtime.chanrecv2", "repro/internal/sim.(*Proc).park",
			"repro/internal/sim.(*Proc).Sleep", "repro/internal/service.(*Frontend).RoundTripErr",
		}, "handoff"},
		{"mallocgc under kvstore", []string{
			"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.makeslice",
			"repro/internal/kvstore.(*Store).Put", "repro/internal/core.RunMillionUser.func1",
		}, "kvstore"},
		{"gc assist under kvstore", []string{
			"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.systemstack",
			"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/kvstore.(*Store).Put",
		}, "gc"},
		{"gc worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, "gc"},
		{"statecache calling crdt", []string{
			"repro/internal/crdt.(*ORSet).Merge", "repro/internal/statecache.(*Replica).apply",
			"repro/internal/core.RunStateCache.func1",
		}, "crdt"},
		{"repo package without its own layer", []string{
			"repro/internal/recon.(*IBF).Add", "repro/internal/statecache.(*Replica).gossipOnce",
		}, "misc"},
		{"stdlib only", []string{
			"crypto/sha256.block", "crypto/sha256.(*Digest).Write", "main.runOnce", "runtime.main",
		}, "other"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("%s: classify = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCPUProfileRoundTrip profiles a short sim kernel run in this process,
// decodes the profile and finds its samples charged to the kernel.
func TestCPUProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		k := sim.NewKernel()
		for range 50 {
			k.Spawn("sleeper", func(p *sim.Proc) {
				for range 200 {
					p.Sleep(time.Microsecond)
				}
			})
		}
		k.Run()
		k.Close()
	}
	pprof.StopCPUProfile()
	lt, err := cpuByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, n := range lt.Samples {
		total += n
	}
	// The race detector's runtime runs on the system stack, so under -race
	// many samples have no repo frame and land in other.
	if kernel := lt.Samples["sim"] + lt.Samples["handoff"]; kernel == 0 || 2*kernel < total-lt.Samples["other"] {
		t.Fatalf("sim+handoff hold %d of %d samples, want most of those outside other (by layer: %v)", kernel, total, lt.Samples)
	}
}
