package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `3 concurrent workers, 40 session-counter ops each

  replica on lambda-vm-1: visits=120 active=[w0 w1 w2] last-seen="w1"
  replica on lambda-vm-2: visits=120 active=[w0 w1 w2] last-seen="w1"
  replica on lambda-vm-3: visits=120 active=[w0 w1 w2] last-seen="w1"
  gossip staleness: sessions/staleness: n=140 mean=20.748217ms p50=9.96579ms p99=188.885929ms min=1.334657ms max=188.886501ms

uncached (DynamoDB round trips):   10.9ms/op, state bill $0.0002
cached (colocated CRDT replicas):    1.2µs/op, state bill $0.0001

data shipping costs 9149x per op; lattice merges make the local copy safe
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
