package core

import (
	"strings"
	"testing"
	"time"
)

// metric returns the value of tb's named metric.
func metric(t *testing.T, tb *Table, name string) float64 {
	t.Helper()
	v, ok := tb.Value(name)
	if !ok {
		t.Fatalf("table %q has no metric %q; metrics: %v", tb.Title, name, tb.Metrics)
	}
	return v
}

// dur returns tb's named duration metric.
func dur(t *testing.T, tb *Table, name string) time.Duration {
	t.Helper()
	return time.Duration(metric(t, tb, name))
}

func within(t *testing.T, what string, got time.Duration, lo, hi time.Duration) {
	t.Helper()
	if got < lo || got > hi {
		t.Errorf("%s = %v, want within [%v, %v]", what, got, lo, hi)
	}
}

func TestRegistryComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Errorf("registry has %d experiments, want 20", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.run == nil || e.Title == "" {
			t.Errorf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if got, ok := ExperimentByID(e.ID); !ok || got.ID != e.ID {
			t.Errorf("ExperimentByID(%q) failed", e.ID)
		}
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("ExperimentByID accepted unknown id")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tb := RunTable1(1, Options{})[0]
	invoke := dur(t, tb, "invoke")
	lambdaS3 := dur(t, tb, "lambda-s3")
	lambdaDDB := dur(t, tb, "lambda-ddb")
	ec2S3 := dur(t, tb, "ec2-s3")
	ec2DDB := dur(t, tb, "ec2-ddb")
	zmq := dur(t, tb, "ec2-zmq")

	within(t, "invoke", invoke, 285*time.Millisecond, 320*time.Millisecond)      // paper: 303ms
	within(t, "lambda-s3", lambdaS3, 100*time.Millisecond, 116*time.Millisecond) // paper: 108ms
	within(t, "lambda-ddb", lambdaDDB, 10*time.Millisecond, 12*time.Millisecond) // paper: 11ms
	within(t, "ec2-s3", ec2S3, 100*time.Millisecond, 116*time.Millisecond)       // paper: 106ms
	within(t, "ec2-ddb", ec2DDB, 10*time.Millisecond, 12*time.Millisecond)       // paper: 11ms
	within(t, "zmq", zmq, 270*time.Microsecond, 310*time.Microsecond)            // paper: 290µs

	// The shape that matters: three orders of magnitude between pure
	// functional messaging and direct networking.
	if ratio := float64(invoke) / float64(zmq); ratio < 900 || ratio > 1200 {
		t.Errorf("invoke/zmq ratio = %.0f, paper reports 1,045x", ratio)
	}
	if ratio := float64(lambdaS3) / float64(zmq); ratio < 300 || ratio > 450 {
		t.Errorf("s3/zmq ratio = %.0f, paper reports 372x", ratio)
	}
}

func TestFigure1Headline(t *testing.T) {
	tb := RunFigure1(1, Options{})[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("figure1 rows = %d", len(tb.Rows))
	}
	joined := strings.Join(tb.Notes, "\n")
	if !strings.Contains(joined, "Figure 1") {
		t.Error("chart missing from notes")
	}
}

func TestTrainingMatchesPaper(t *testing.T) {
	tb := RunTraining(1, Options{})[0]
	lambdaTotal := dur(t, tb, "lambda.total")
	ec2Total := dur(t, tb, "ec2.total")
	within(t, "lambda total", lambdaTotal, 440*time.Minute, 490*time.Minute) // paper: 465min
	within(t, "ec2 total", ec2Total, 20*time.Minute, 24*time.Minute)         // paper: ~21.7min

	slow := lambdaTotal.Seconds() / ec2Total.Seconds()
	if slow < 19 || slow > 24 {
		t.Errorf("slowdown = %.1fx, paper reports 21x", slow)
	}
	if n := metric(t, tb, "lambda.executions"); n < 30 || n > 33 {
		t.Errorf("lambda executions = %.0f, paper reports 31", n)
	}
	lambdaCost := metric(t, tb, "lambda.cost")
	ec2Cost := metric(t, tb, "ec2.cost")
	if lambdaCost < 0.27 || lambdaCost > 0.31 {
		t.Errorf("lambda cost = $%.4f, paper reports $0.29", lambdaCost)
	}
	if ec2Cost < 0.03 || ec2Cost > 0.05 {
		t.Errorf("ec2 cost = $%.4f, paper reports $0.04", ec2Cost)
	}
	if ratio := lambdaCost / ec2Cost; ratio < 6 || ratio > 9 {
		t.Errorf("cost ratio = %.1fx, paper reports 7.3x", ratio)
	}
}

func TestServingMatchesPaper(t *testing.T) {
	tb := RunServing(1, Options{})[0]
	fetch := dur(t, tb, "lambda-fetch")
	opt := dur(t, tb, "lambda-opt")
	sqs := dur(t, tb, "ec2-sqs")
	zmq := dur(t, tb, "ec2-zmq")

	within(t, "lambda-fetch", fetch, 525*time.Millisecond, 590*time.Millisecond) // paper: 559ms
	within(t, "lambda-opt", opt, 425*time.Millisecond, 470*time.Millisecond)     // paper: 447ms
	within(t, "ec2-sqs", sqs, 11*time.Millisecond, 15*time.Millisecond)          // paper: 13ms
	within(t, "ec2-zmq", zmq, 2500*time.Microsecond, 3300*time.Microsecond)      // paper: 2.8ms

	if fetch <= opt {
		t.Error("model fetch variant should be slower than compiled-in")
	}
	if ratio := float64(opt) / float64(zmq); ratio < 100 || ratio > 200 {
		t.Errorf("opt/zmq = %.0fx, paper reports 127x", ratio)
	}
}

func TestServingCostMatchesPaper(t *testing.T) {
	tb := RunServingCost(1, Options{})[0]
	sqsCost := metric(t, tb, "sqs.cost")
	ec2Cost := metric(t, tb, "ec2.cost")
	if sqsCost < 1500 || sqsCost > 1700 {
		t.Errorf("SQS hourly = $%.0f, paper reports $1,584", sqsCost)
	}
	if ec2Cost < 26 || ec2Cost > 30 {
		t.Errorf("EC2 hourly = $%.2f, paper reports $27.84", ec2Cost)
	}
	if ratio := sqsCost / ec2Cost; ratio < 50 || ratio > 65 {
		t.Errorf("cost ratio = %.0fx, paper reports 57x", ratio)
	}
}

func TestElectionMatchesPaper(t *testing.T) {
	tb := RunElection(1, Options{})[0]
	round := dur(t, tb, "round")
	within(t, "round", round, 14*time.Second, 19*time.Second) // paper: 16.7s

	if share := metric(t, tb, "lifetime-share"); share < 1.5 || share > 2.2 {
		t.Errorf("lifetime share = %.2f%%, paper reports 1.9%%", share)
	}
	if cost := metric(t, tb, "cost@1000"); cost < 400 || cost > 520 {
		t.Errorf("1,000-node cost = $%.0f/hr, paper reports >= $450/hr", cost)
	}
}

func TestBandwidthMatchesPaper(t *testing.T) {
	tb := RunBandwidth(1, Options{})[0]
	solo := metric(t, tb, "mbps@1")
	packed := metric(t, tb, "mbps@20")
	if solo < 520 || solo > 545 {
		t.Errorf("solo bandwidth = %.1f Mbps, paper reports 538", solo)
	}
	if packed < 24 || packed > 30 {
		t.Errorf("20-way bandwidth = %.1f Mbps, paper reports 28.7", packed)
	}
	if ratio := solo / packed; ratio < 18 || ratio > 22 {
		t.Errorf("collapse factor = %.1fx, want ~20x", ratio)
	}
}

func TestWorkflowOverheadShape(t *testing.T) {
	tb := RunWorkflow(1, Options{})[0]
	faasLat := dur(t, tb, "pipeline")
	monoLat := dur(t, tb, "monolith")
	if faasLat < 3*time.Second {
		t.Errorf("FaaS 8-step pipeline = %v, implausibly fast", faasLat)
	}
	if monoLat > 100*time.Millisecond {
		t.Errorf("monolith = %v, implausibly slow", monoLat)
	}
	if ratio := float64(faasLat) / float64(monoLat); ratio < 50 {
		t.Errorf("pipeline/monolith = %.0fx, want >= 50x", ratio)
	}
}

func TestFirecrackerAblation(t *testing.T) {
	tb := RunFirecracker(1, Options{})[0]
	warmClassic := dur(t, tb, "warm.classic")
	warmFire := dur(t, tb, "warm.firecracker")
	coldClassic := dur(t, tb, "cold.classic")
	coldFire := dur(t, tb, "cold.firecracker")
	// Warm path (Table 1 conditions) barely moves: "modest effects".
	diff := float64(warmClassic-warmFire) / float64(warmClassic)
	if diff < -0.05 || diff > 0.05 {
		t.Errorf("warm path moved %.1f%% under Firecracker, want ~0", diff*100)
	}
	if coldFire >= coldClassic {
		t.Error("Firecracker should cut cold starts")
	}
	if coldFire < 400*time.Millisecond {
		t.Errorf("Firecracker cold invoke = %v; should still carry ~300ms invoke overhead", coldFire)
	}
}

func TestFastNICAblation(t *testing.T) {
	tb := RunFastNIC(1, Options{})[0]
	perCoreMBps := metric(t, tb, "mbps@64") / 8
	if perCoreMBps < 170 || perCoreMBps > 220 {
		t.Errorf("per-function bandwidth at 64-way = %.0f MB/s, paper predicts ~200", perCoreMBps)
	}
	if perCoreMBps >= SSDBandwidthMBps {
		t.Error("64-way packing should still trail an SSD")
	}
}

func TestFutureClosesTheGaps(t *testing.T) {
	tb := RunFuture(1, Options{})[0]
	train := dur(t, tb, "training")
	// Near-EC2 speed: paper's EC2 run is ~21.7min.
	within(t, "future training", train, 19*time.Minute, 25*time.Minute)
	serve := dur(t, tb, "serving")
	if serve > 5*time.Millisecond {
		t.Errorf("future serving = %v, want ZeroMQ-class", serve)
	}
	elect := dur(t, tb, "election")
	if elect > time.Second {
		t.Errorf("future election = %v, want sub-second", elect)
	}
}

func TestElectionSweepShape(t *testing.T) {
	tb := RunElectionSweep(1, Options{})[0]
	if len(tb.Rows) != 4 {
		t.Fatalf("sweep rows = %d, want 4", len(tb.Rows))
	}
	prev := time.Duration(1 << 62)
	for _, hz := range []string{"1Hz", "2Hz", "4Hz", "8Hz"} {
		round := dur(t, tb, "round@"+hz)
		if round > prev+time.Second { // allow jitter, but trend must fall
			t.Errorf("round latency did not shrink with polling rate: %v after %v", round, prev)
		}
		prev = round
	}
}

func TestAutoscaleShape(t *testing.T) {
	tb := RunAutoscale(1, Options{})[0]
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 load levels", len(tb.Rows))
	}
	// Below capacity: EC2 p50 ~50ms beats Lambda's ~350ms.
	lowLambda := dur(t, tb, "lambda.p50@10")
	lowEC2 := dur(t, tb, "ec2.p50@10")
	if lowEC2 >= lowLambda {
		t.Errorf("below capacity EC2 (%v) should beat Lambda (%v)", lowEC2, lowLambda)
	}
	if lowEC2 < 45*time.Millisecond || lowEC2 > 80*time.Millisecond {
		t.Errorf("EC2 p50 at low load = %v, want ~50ms", lowEC2)
	}
	// Above capacity: EC2 p99 diverges; Lambda p99 stays near its p50.
	hiLambda99 := dur(t, tb, "lambda.p99@50")
	hiEC299 := dur(t, tb, "ec2.p99@50")
	if hiEC299 < 5*time.Second {
		t.Errorf("overloaded EC2 p99 = %v, want queueing divergence (>5s)", hiEC299)
	}
	if hiLambda99 > 1500*time.Millisecond {
		t.Errorf("Lambda p99 under load = %v, want flat (autoscaling)", hiLambda99)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		Title:  "T",
		Header: []string{"a", "bb"},
	}
	tb.AddRow("x", "y")
	tb.AddRow("wide", "row", "beyond-the-header")
	tb.AddNote("n %d", 1)
	out := tb.Render()
	for _, want := range []string{"T\n", "a", "bb", "x", "y", "beyond-the-header", "note: n 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	cases := map[time.Duration]string{
		90 * time.Second:        "1.5min",
		1500 * time.Millisecond: "1.50s",
		250 * time.Millisecond:  "250.0ms",
		42 * time.Microsecond:   "42µs",
	}
	for in, want := range cases {
		if got := FmtDur(in); got != want {
			t.Errorf("FmtDur(%v) = %q, want %q", in, got, want)
		}
	}
	if FmtRatio(1045) != "1045x" || FmtRatio(37.9) != "37.9x" || FmtRatio(1.0) != "1.00x" {
		t.Error("FmtRatio formats wrong")
	}
}
