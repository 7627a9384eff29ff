package main

import (
	"strings"
	"testing"
)

// want is the example's output at seed 1.
const want = `classifying 50 batches of 10 documents each way:

  lambda: lambda: n=50 mean=463.138192ms p50=447.594788ms p99=883.332557ms min=385.864061ms max=1.238366805s (every batch pays the invocation path)
  ec2+sqs: ec2+sqs: n=50 mean=13.470085ms p50=13.456624ms p99=15.347681ms min=12.009033ms max=15.483782ms
  ec2+zmq: ec2+zmq: n=50 mean=2.879976ms p50=2.884104ms p99=2.934379ms min=2.803229ms max=2.9351ms

Lambda (SQS trigger):        463ms/batch
EC2 + SQS:                   13ms/batch
EC2 + direct messaging:      2.9ms/batch

FaaS pays 161x over direct messaging for every single batch
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
