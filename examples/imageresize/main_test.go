package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `100 images resized in 2.115s of virtual time (sequential would take ~3m1.9373655s)
per-image latency: mean=1.819s p50=1.927s p99=2.108s
platform autoscaled onto 0 shared VMs (20 containers each)
bill: $0.0008 across 100 invocations
`

// TestSeed1Output pins the example's seed-1 output: a change that moves
// any number it prints fails here.
func TestSeed1Output(t *testing.T) {
	var b strings.Builder
	if err := run(&b, 1); err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("seed-1 output changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
