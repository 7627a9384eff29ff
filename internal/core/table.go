package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/stats"
)

// Table is a rendered experiment artifact mirroring one of the paper's
// tables or figures.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
	// Metrics carries the unrounded numbers behind the cells that tests
	// and benchmarks read. Render ignores them.
	Metrics []Metric
}

// Metric is one named number an experiment reports alongside its table.
type Metric struct {
	Name  string
	Unit  string // "ns" for durations
	Value float64
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// AddNote appends a footnote line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// AddMetric appends a typed metric.
func (t *Table) AddMetric(name, unit string, value float64) {
	t.Metrics = append(t.Metrics, Metric{Name: name, Unit: unit, Value: value})
}

// Value returns the value of the named metric.
func (t *Table) Value(name string) (float64, bool) {
	for _, m := range t.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Render formats the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	b.WriteString(t.Title)
	b.WriteString("\n")
	cols := len(t.Header)
	for _, row := range t.Rows {
		cols = max(cols, len(row))
	}
	widths := make([]int, cols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		b.WriteString("note: ")
		b.WriteString(n)
		b.WriteString("\n")
	}
	return b.String()
}

// FmtDur formats a duration with sensible experiment precision.
func FmtDur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%.0fns", float64(d))
	}
}

// FmtBytes formats a byte count with adaptive decimal units.
func FmtBytes(n int64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fGB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fMB", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fKB", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// FmtRatio formats a "compared to best" multiplier like the paper's Table 1.
func FmtRatio(r float64) string {
	switch {
	case r >= 100:
		return fmt.Sprintf("%.0fx", r)
	case r >= 10:
		return fmt.Sprintf("%.1fx", r)
	default:
		return fmt.Sprintf("%.2fx", r)
	}
}

// Options are the per-run switches experiments honor. The zero value is the
// reference configuration every golden pins.
type Options struct {
	// Sketch records latencies in fixed-memory quantile sketches (≤1%
	// percentile error) instead of exact recorders.
	Sketch bool
	// Recon reconciles statecache gossip with constant-size IBF summaries
	// instead of per-key digests.
	Recon bool
}

// newSummary builds the latency summary experiments record into.
func (o Options) newSummary(name string) stats.Summary {
	return stats.NewSummary(name, o.Sketch)
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID      string // e.g. "table1"
	Title   string
	Options Options
	run     func(uint64, Options) []*Table
}

// Run executes the experiment deterministically for the given seed under
// e.Options and returns its tables.
func (e Experiment) Run(seed uint64) []*Table { return e.run(seed, e.Options) }

// Experiments returns the full registry in presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table 1: 1KB communication latencies", run: RunTable1},
		{ID: "figure1", Title: "Figure 1: Google Trends, Serverless vs MapReduce", run: RunFigure1},
		{ID: "training", Title: "§3.1 Case study: model training (Lambda vs EC2)", run: RunTraining},
		{ID: "serving", Title: "§3.1 Case study: prediction serving latency", run: RunServing},
		{ID: "servingcost", Title: "§3.1 Case study: serving cost at 1M msg/s", run: RunServingCost},
		{ID: "election", Title: "§3.1 Case study: bully election on a DynamoDB blackboard", run: RunElection},
		{ID: "bandwidth", Title: "§3(2): per-function network bandwidth vs packing", run: RunBandwidth},
		{ID: "workflow", Title: "§2: function-composition overhead (signup pipeline)", run: RunWorkflow},
		{ID: "firecracker", Title: "Ablation (footnote 5): Firecracker 125ms cold starts", run: RunFirecracker},
		{ID: "fastnic", Title: "Ablation (footnote 4): 100Gbps NICs, 64-way packing", run: RunFastNIC},
		{ID: "future", Title: "§4: case studies on the forward-looking platform", run: RunFuture},
		{ID: "electionsweep", Title: "Sensitivity: election round vs polling rate", run: RunElectionSweep},
		{ID: "autoscale", Title: "§1.2: autoscaling under open-loop load (the step forward)", run: RunAutoscale},
		{ID: "regionscale", Title: "Region scale: sharded KV table under open-loop load", run: RunRegionScale},
		{ID: "faasscale", Title: "FaaS at region scale: flash-crowd serving vs provisioned concurrency", run: RunFaaSScale},
		{ID: "statecache", Title: "§4 fluid state: function-colocated CRDT cache with gossip anti-entropy", run: RunStateCache},
		{ID: "millionuser", Title: "Million-user scale: sketched latencies + aggregated load population", run: RunMillionUser},
		{ID: "millionkey", Title: "Million-key gossip: IBF set reconciliation vs per-key digests", run: RunMillionKey},
		{ID: "regionfailover", Title: "Multi-region failover: WAN partition + crash storm under measured load", run: RunRegionFailover},
		{ID: "retrystorm", Title: "Resilience fabric: retry policies under a metastable retry storm", run: RunRetryStorm},
	}
}

// ExperimentByID looks up a registry entry.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
