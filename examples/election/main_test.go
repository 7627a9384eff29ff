package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `bully leader election, 5 nodes, leader killed after things settle
  [blackboard] initial leader: node 5 (after 1s)
  [blackboard] node 5 crashed; node 4 took over after 16.2s
  [direct]     initial leader: node 5 (after 100ms)
  [direct]     node 5 crashed; node 4 took over after 300ms

blackboard (DynamoDB, 4Hz polling): failover in 16.2s, storage bill $0.0005 for the run
direct messaging:                   failover in 300ms
storage-mediated coordination is 54x slower
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
