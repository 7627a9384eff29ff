// Package core is the reproduction's measurement harness: it assembles the
// simulated cloud (every substrate the paper's evaluation touches), defines
// the calibration constants with their provenance, and implements one
// experiment per table and figure in the paper. cmd/faasbench and the root
// bench_test.go are thin wrappers over this package.
package core

import (
	"time"

	"repro/internal/faas"
	"repro/internal/kvstore"
)

// Calibration constants. Everything here and in the service packages is a
// *primitive* (a per-operation latency, a throughput, a price); every
// number the experiments report is derived by running the simulated
// system. Each service package holds its own primitives as package
// constants next to the code that uses them. Provenance:
//
//	Paper-measured primitives (Table 1 and §3.1):
//	  - Lambda no-op invocation with 1KB argument: 303 ms mean
//	    -> faas invokeOverhead (294 ms median) + warm dispatch +
//	       payload shipping.
//	  - S3 1KB write+read: 106-108 ms -> objectstore opLatency (52 ms
//	    median per op).
//	  - DynamoDB 1KB write+read: 11 ms -> kvstore opLatency (4.15 ms
//	    median per op).
//	  - ZeroMQ 1KB round trip: 290 µs -> netsim same-rack one-way delay
//	    (127-157 µs) + NIC serialization + 2 µs software overhead.
//	  - 100 MB S3 fetch from Lambda: 2.49 s -> objectstore PerConnBps
//	    (41.2 MB/s per connection).
//	  - Optimizer over 100 MB at 640 MB memory: 0.59 s -> faas
//	    fullCoreComputeMBps (468.6) x memory share (640/1769).
//	  - Optimizer over 100 MB on m4.large: 0.10 s -> compute.M4Large
//	    ComputeMBps (1000).
//	  - Warm 100 MB EBS read: 0.04 s -> compute warmBps (2.5 GB/s page
//	    cache).
//	  - Per-function bandwidth 538 Mbps (Wang et al. [26]) -> faas
//	    VMNICBps; packing 20 containers per VM.
//
//	Public AWS prices, Fall 2018 (pricing.Fall2018): Lambda $0.20/M
//	requests + $16.67e-6/GB-s; m4.large $0.10/hr; m5.large $0.096/hr;
//	S3 $5e-6/PUT + $0.4e-6/GET; DynamoDB on-demand $0.25/M read units +
//	$1.25/M write units; SQS $0.40/M requests.
//
//	Reconstructed assumptions (the paper does not state them; full
//	derivations in EXPERIMENTS.md):
//	  - SQS-triggered invocation adds an event-source dispatch delay of
//	    115-155 ms (faas esmDispatchDelay), chosen so the optimized
//	    serving variant lands at the measured 447 ms/batch.
//	  - Election blackboard records are padded to 500 B so that a
//	    1,000-node board scan costs ~123 read units, reproducing the
//	    "$450/hr at minimum" claim.
//	  - One EC2 serving core spends ~580 µs of CPU per message, chosen
//	    so an m5.large sustains the paper's ~3,500 msg/s and the fleet
//	    for 1M msg/s is 290 instances.
const (
	// TrainingBatchBytes is the paper's training batch size.
	TrainingBatchBytes = int64(100e6)
	// TrainingCorpusBytes is the paper's corpus size (90 GB).
	TrainingCorpusBytes = int64(90e9)
	// TrainingEpochs is the paper's pass count.
	TrainingEpochs = 10
	// TrainingLambdaMemoryMB is the paper's function size.
	TrainingLambdaMemoryMB = 640

	// ServingBatchSize is SQS's (and the paper's) batch cap.
	ServingBatchSize = 10
	// ServingCPUPerMessage is the reconstructed per-message CPU cost on
	// an EC2 serving core (calibrated to ~3,500 msg/s per m5.large).
	ServingCPUPerMessage = 580 * time.Microsecond
	// ServingTargetRate is the cost analysis's offered load.
	ServingTargetRate = 1e6 // messages per second

	// SSDBandwidthMBps is the single-SSD reference the paper compares
	// per-function bandwidth against (order of 2-3 GB/s in 2018).
	SSDBandwidthMBps = 2500.0

	// FirecrackerColdStart is footnote 5's microVM startup time.
	FirecrackerColdStart = 125 * time.Millisecond
)

// Config holds the substrate settings experiments override (ablations,
// sharding) without touching the calibrated defaults.
type Config struct {
	DDB    kvstore.Config
	Lambda faas.Config
}

// DefaultConfig returns the fully calibrated configuration.
func DefaultConfig() Config {
	return Config{
		DDB:    kvstore.DefaultConfig(),
		Lambda: faas.DefaultConfig(),
	}
}
