package main

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
)

// TestDigestsIgnoreWorkerCount runs the two sweeping workloads through the
// harness's run-and-digest path at one worker and at GOMAXPROCS.
func TestDigestsIgnoreWorkerCount(t *testing.T) {
	defer sweep.SetWorkers(0)
	for _, id := range []string{"faasscale", "statecache"} {
		exp, _ := core.ExperimentByID(id)
		for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
			sweep.SetWorkers(w)
			if got, want := runOnce(exp, 1), referenceDigests[id][1]; got != want {
				t.Errorf("%s seed 1 at %d workers: digest %s, want %s", id, w, got, want)
			}
		}
	}
}

// TestProfiledSessionMatchesCommittedDigest runs a profiled retrystorm
// session in this process and checks it the way the benchmark does.
func TestProfiledSessionMatchesCommittedDigest(t *testing.T) {
	defer sweep.SetWorkers(0)
	w, _ := workloadByID("retrystorm")
	s, err := runSession(spec{workload: w.id, seed: 1, warm: 2, profile: true}, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	rs := &runSet{w: w, seed: 1, traced: &s}
	if ref, attempted, failed := rs.check(); attempted != 3 || failed != 0 || ref != referenceDigests[w.id][1] {
		t.Fatalf("check = (%.12s, %d attempted, %d failed), want the committed digest, 3 attempted, 0 failed", ref, attempted, failed)
	}
	var cpu int64
	var alloc float64
	for _, l := range layers {
		cpu += s.Layers.CPUNs[l]
		alloc += s.Layers.AllocBytes[l]
	}
	if cpu <= 0 || alloc <= 0 {
		t.Fatalf("profiled session attributed %d CPU ns and %.0f bytes, want both positive", cpu, alloc)
	}
}
