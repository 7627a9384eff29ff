package repro

// One benchmark per table and figure in the paper. Each benchmark runs the
// corresponding experiment end to end on the simulated cloud and reports
// the headline quantity as a custom metric, so `go test -bench=.` doubles
// as the reproduction harness. Results are deterministic per seed; the
// ns/op column measures simulator wall time, the custom metrics carry the
// paper-comparable numbers.

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

// metric returns the named typed metric of an experiment's first table.
func metric(b *testing.B, tables []*core.Table, name string) float64 {
	b.Helper()
	v, ok := tables[0].Value(name)
	if !ok {
		b.Fatalf("no metric %q in %q", name, tables[0].Title)
	}
	return v
}

// millis returns the named duration metric in milliseconds.
func millis(b *testing.B, tables []*core.Table, name string) float64 {
	b.Helper()
	return metric(b, tables, name) / 1e6
}

// BenchmarkTable1Latencies regenerates Table 1 (1KB communication costs).
func BenchmarkTable1Latencies(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunTable1(1)
	}
	b.ReportMetric(millis(b, tables, "invoke"), "invoke-ms")
	b.ReportMetric(millis(b, tables, "lambda-s3"), "lambda-s3-ms")
	b.ReportMetric(millis(b, tables, "lambda-ddb"), "lambda-ddb-ms")
	b.ReportMetric(millis(b, tables, "ec2-zmq")*1000, "zmq-us")
}

// BenchmarkFigure1Trends regenerates Figure 1 (trends chart).
func BenchmarkFigure1Trends(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFigure1(1)
	}
	if len(tables[0].Rows) != 2 {
		b.Fatal("figure 1 incomplete")
	}
}

// BenchmarkTrainingCaseStudy regenerates the §3.1 training table
// (paper: 465min/$0.29 on Lambda vs 21.7min/$0.04 on EC2 — 21x / 7.3x).
func BenchmarkTrainingCaseStudy(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunTraining(1)
	}
	lambdaMin := millis(b, tables, "lambda.total") / 60000
	ec2Min := millis(b, tables, "ec2.total") / 60000
	b.ReportMetric(lambdaMin, "lambda-min")
	b.ReportMetric(ec2Min, "ec2-min")
	b.ReportMetric(lambdaMin/ec2Min, "slowdown-x")
}

// BenchmarkServingLatency regenerates the §3.1 serving latencies
// (paper: 559ms / 447ms / 13ms / 2.8ms).
func BenchmarkServingLatency(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunServing(1)
	}
	b.ReportMetric(millis(b, tables, "lambda-fetch"), "lambda-fetch-ms")
	b.ReportMetric(millis(b, tables, "lambda-opt"), "lambda-opt-ms")
	b.ReportMetric(millis(b, tables, "ec2-sqs"), "ec2-sqs-ms")
	b.ReportMetric(millis(b, tables, "ec2-zmq"), "ec2-zmq-ms")
}

// BenchmarkServingCost regenerates the 1M msg/s cost analysis
// (paper: $1,584/hr SQS vs $27.84/hr EC2 — 57x).
func BenchmarkServingCost(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunServingCost(1)
	}
	sqs := metric(b, tables, "sqs.cost")
	ec2 := metric(b, tables, "ec2.cost")
	b.ReportMetric(sqs, "sqs-usd-hr")
	b.ReportMetric(ec2, "ec2-usd-hr")
	b.ReportMetric(sqs/ec2, "ratio-x")
}

// BenchmarkElectionBlackboard regenerates the §3.1 election case study
// (paper: 16.7s rounds, 1.9% of lifetime, >= $450/hr at 1,000 nodes).
func BenchmarkElectionBlackboard(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunElection(1)
	}
	b.ReportMetric(millis(b, tables, "round")/1000, "round-s")
	b.ReportMetric(metric(b, tables, "cost@1000"), "usd-hr-1000n")
}

// BenchmarkBandwidthSweep regenerates the per-function bandwidth collapse
// (paper: 538 Mbps solo, 28.7 Mbps at 20 functions).
func BenchmarkBandwidthSweep(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunBandwidth(1)
	}
	b.ReportMetric(metric(b, tables, "mbps@1"), "solo-mbps")
	b.ReportMetric(metric(b, tables, "mbps@20"), "packed20-mbps")
}

// BenchmarkWorkflowSignup regenerates the §2 composition-overhead table.
func BenchmarkWorkflowSignup(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunWorkflow(1)
	}
	b.ReportMetric(millis(b, tables, "pipeline"), "pipeline-ms")
	b.ReportMetric(millis(b, tables, "monolith"), "monolith-ms")
}

// BenchmarkAblationFirecracker regenerates footnote 5's what-if.
func BenchmarkAblationFirecracker(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFirecracker(1)
	}
	b.ReportMetric(millis(b, tables, "cold.classic"), "cold-classic-ms")
	b.ReportMetric(millis(b, tables, "cold.firecracker"), "cold-firecracker-ms")
}

// BenchmarkAblationFastNIC regenerates footnote 4's what-if.
func BenchmarkAblationFastNIC(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFastNIC(1)
	}
	b.ReportMetric(metric(b, tables, "mbps@64")/8, "mbytes-per-core")
}

// BenchmarkFuturePlatform regenerates the §4 prototype comparison.
func BenchmarkFuturePlatform(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFuture(1)
	}
	b.ReportMetric(millis(b, tables, "training")/60000, "training-min")
	b.ReportMetric(millis(b, tables, "serving"), "serving-ms")
}

// BenchmarkElectionSweep regenerates the polling-rate sensitivity table.
func BenchmarkElectionSweep(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunElectionSweep(1)
	}
	b.ReportMetric(millis(b, tables, "round@1Hz")/1000, "round-1hz-s")
	b.ReportMetric(millis(b, tables, "round@8Hz")/1000, "round-8hz-s")
}

// BenchmarkAutoscaleUnderLoad regenerates the §1.2 "step forward" table.
func BenchmarkAutoscaleUnderLoad(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunAutoscale(1)
	}
	b.ReportMetric(millis(b, tables, "lambda.p99@50"), "lambda-p99-ms")
	b.ReportMetric(millis(b, tables, "ec2.p99@50")/1000, "ec2-p99-s")
}

// BenchmarkRegionScaleKV runs the region-scale sharding scenario (no paper
// counterpart; the ROADMAP's scaling direction): a 4,000 req/s open-loop
// load against one logical KV table at growing shard counts, reporting
// aggregate throughput at 1 and 4 shards and the measured speedup.
func BenchmarkRegionScaleKV(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunRegionScale(1)
	}
	shard1, shard4 := metric(b, tables, "rps@1"), metric(b, tables, "rps@4")
	b.ReportMetric(shard1, "shard1-rps")
	b.ReportMetric(shard4, "shard4-rps")
	b.ReportMetric(shard4/shard1, "speedup4-x")
	b.ReportMetric(millis(b, tables, "p99@4"), "shard4-p99-ms")
}

// BenchmarkFaaSScale runs the FaaS serving-tier scaling scenario (no paper
// counterpart; the ROADMAP's scaling direction): flash-crowd load through
// SQS -> Lambda -> sharded kvstore at growing provisioned concurrency,
// reporting the cold-start fraction and tail latency at the sweep's ends
// plus the autoscaled point's hourly cost.
func BenchmarkFaaSScale(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunFaaSScale(1)
	}
	b.ReportMetric(metric(b, tables, "cold@0"), "cold0-pct")
	b.ReportMetric(metric(b, tables, "cold@32"), "cold32-pct")
	b.ReportMetric(millis(b, tables, "p99@0"), "p99-prov0-ms")
	b.ReportMetric(millis(b, tables, "p99@32"), "p99-prov32-ms")
	b.ReportMetric(metric(b, tables, "cost@auto"), "auto-usd-hr")
}

// BenchmarkMillionUserKV runs the million-user scenario (the ROADMAP's
// top open item): 10⁶ simulated clients at 100k req/s aggregate through
// the aggregated load population, sweeping 16/32/64 shards, with
// latencies held in fixed-memory sketches. Reported: completed throughput
// at the sweep's ends, the 64-shard sketched tails, the hourly bill, and
// the process's peak heap — the number the fixed-memory refactor exists
// to keep flat.
func BenchmarkMillionUserKV(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunMillionUser(1)
	}
	b.ReportMetric(metric(b, tables, "rps@16"), "shard16-rps")
	b.ReportMetric(metric(b, tables, "rps@64"), "shard64-rps")
	b.ReportMetric(millis(b, tables, "p50@64"), "shard64-p50-ms")
	b.ReportMetric(millis(b, tables, "p99@64"), "shard64-p99-ms")
	b.ReportMetric(millis(b, tables, "p999@64"), "shard64-p999-ms")
	b.ReportMetric(metric(b, tables, "cost@64"), "usd-hr")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapSys)/(1<<20), "peak-heap-mb")
}

// BenchmarkStateCacheScale runs the function-colocated state-cache
// scenario (the paper's §4 fluid-state direction): identical stateful
// workloads against the DynamoDB-class store and against VM-colocated CRDT
// replicas with gossip anti-entropy, sweeping replica count and gossip
// interval. Reported: read tails on both sides, the measured staleness
// window, and the cached/uncached p99 ratio.
func BenchmarkStateCacheScale(b *testing.B) {
	var tables []*core.Table
	for i := 0; i < b.N; i++ {
		tables = core.RunStateCache(1)
	}
	uncachedP99 := millis(b, tables, "read-p99.uncached")
	cachedP99 := millis(b, tables, "read-p99.cached")
	b.ReportMetric(uncachedP99, "uncached-p99-ms")
	b.ReportMetric(cachedP99*1e6, "cached-p99-ns")
	b.ReportMetric(uncachedP99/cachedP99, "p99-ratio-x")
	b.ReportMetric(millis(b, tables, "stale-p99.cached"), "stale-p99-ms")
}

// sanity: experiments must be deterministic — identical output across runs
// with the same seed. Guarded here (not in internal/core) so the bench
// harness itself verifies reproducibility.
func TestExperimentsDeterministic(t *testing.T) {
	for _, id := range []string{"table1", "servingcost", "bandwidth", "regionscale", "faasscale"} {
		e, ok := core.ExperimentByID(id)
		if !ok {
			t.Fatalf("missing experiment %s", id)
		}
		a := render(e.Run(7))
		b := render(e.Run(7))
		if a != b {
			t.Errorf("experiment %s is nondeterministic", id)
		}
	}
}

func render(tables []*core.Table) string {
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.Render())
	}
	return sb.String()
}
