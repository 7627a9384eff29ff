package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `one epoch over 20 batches of 100MB, real 128-feature MLP in the loop

Lambda (640MB): every batch fetched over the network from S3
EC2 m4.large: batches read from the local page cache

Lambda: 1m2s       (holdout MSE 10.430 -> 0.597)
EC2:    3s         (holdout MSE 10.430 -> 0.597)
the data-shipping architecture costs 22.2x in wall clock
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
