package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `call 1: "HELLO, world"  latency=812ms     cold=true  billed=100ms
call 2: "HELLO, world"  latency=284ms     cold=false billed=100ms
call 3: "HELLO, world"  latency=330ms     cold=false billed=100ms

the meter saw:
  lambda.gbsec     count=3    cost=$0.0000
  lambda.request   count=3    cost=$0.0000
total: $0.0000 (virtual time elapsed: 10m1.426449728s)
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
