package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `signing up 5 users through a 6-step FaaS pipeline:

  user-a  7.28s     completed →validate→dedupe→create→provision→permissions→notify
  user-b  3.21s     completed →validate→dedupe→create→provision→permissions→notify
  user-c  3.25s     completed →validate→dedupe→create→provision→permissions→notify
  user-d  3.31s     completed →validate→dedupe→create→provision→permissions→notify
  user-e  3.19s     completed →validate→dedupe→create→provision→permissions→notify

same steps in one process: 4ms — the pipeline's latency is pure
queue/invoke/state overhead (the paper's Autodesk signups averaged ~10min)
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
