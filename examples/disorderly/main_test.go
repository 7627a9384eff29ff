package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `10 functions each record 20 events via eventually consistent storage


naive integer:    26 / 200  (unconditional read-modify-write loses races)
G-Counter CRDT:  200 / 200  (merge is commutative, associative, idempotent)
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
