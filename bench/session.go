package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// session is what one fresh process measured: a cold first run, then the
// warm runs.
type session struct {
	Workers    int          `json:"workers"`
	SetupS     float64      `json:"setup_s"`     // spawn to the end of the cold run
	WallS      []float64    `json:"wall_s"`      // per warm run
	CPUS       []float64    `json:"cpu_s"`       // per warm run, process user+sys
	Digests    []string     `json:"digests"`     // cold run first
	Mallocs    uint64       `json:"mallocs"`     // over the warm runs
	AllocBytes uint64       `json:"alloc_bytes"` // over the warm runs
	MaxRSSKB   int64        `json:"max_rss_kb"`
	Layers     *layerTotals `json:"layers,omitempty"` // profiled sessions only
}

// runSession runs sp in this process. spawn is when the parent started it.
func runSession(sp spec, spawn time.Time) (session, error) {
	w, ok := workloadByID(sp.workload)
	if !ok {
		return session{}, fmt.Errorf("unknown workload %q", sp.workload)
	}
	exp, ok := core.ExperimentByID(w.id)
	if !ok {
		return session{}, fmt.Errorf("experiment %q is not registered", w.id)
	}
	sweep.SetWorkers(w.sweepWorkers())
	s := session{Workers: sweep.Workers()}
	s.Digests = append(s.Digests, runOnce(exp, sp.seed))
	s.SetupS = time.Since(spawn).Seconds()

	var prof bytes.Buffer
	var allocBefore map[string]float64
	if sp.profile {
		runtime.GC() // publishes the allocation profile up to here
		allocBefore = allocByLayer()
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return session{}, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for len(s.WallS) < max(sp.warm, 1) || time.Since(start) < sp.budget {
		c0, t0 := cpuSeconds(), time.Now()
		d := runOnce(exp, sp.seed)
		s.WallS = append(s.WallS, time.Since(t0).Seconds())
		s.CPUS = append(s.CPUS, cpuSeconds()-c0)
		s.Digests = append(s.Digests, d)
	}
	runtime.ReadMemStats(&after)
	s.Mallocs = after.Mallocs - before.Mallocs
	s.AllocBytes = after.TotalAlloc - before.TotalAlloc

	if sp.profile {
		pprof.StopCPUProfile()
		lt, err := cpuByLayer(prof.Bytes())
		if err != nil {
			return session{}, err
		}
		runtime.GC()
		lt.AllocBytes = allocByLayer()
		for l, b := range allocBefore {
			lt.AllocBytes[l] -= b
		}
		s.Layers = lt
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return session{}, err
	}
	s.MaxRSSKB = ru.Maxrss
	return s, nil
}

// runOnce runs the experiment and returns the sha256 of its rendered
// tables, or a description of the panic that stopped it.
func runOnce(exp core.Experiment, seed uint64) (digest string) {
	defer func() {
		if r := recover(); r != nil {
			digest = fmt.Sprintf("panic: %v", r)
			fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s\n", exp.ID, seed, digest)
		}
	}()
	h := sha256.New()
	for _, t := range exp.Run(seed) {
		io.WriteString(h, t.Render())
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
