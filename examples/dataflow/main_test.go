package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `64 x 256MB partitions through parse|filter|sessionize

planner: code->data per-partition predictions: code->data 0.308s, data->code 0.403s
  planner (code->data):  2.58s     output 409.6MB
  forced data->code:     4.81s     output 409.6MB
  forced code->data:     2.58s     output 409.6MB

agent-seconds billed: $0.0013 — pay-per-use survives the placement fix
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
