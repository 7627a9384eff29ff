package core

import "testing"

// Golden end-to-end traces: the rendered output of the calibrated
// experiments at seed 1, captured before this PR's changes landed. These
// extend the kvstore parity-test pattern to whole experiments: a refactor
// of the queue, loadgen, or faas layers must leave every byte — latencies
// down to 100µs formatting, costs to the cent — of the calibrated
// artifacts unchanged. Regenerate a constant only when a PR deliberately
// recalibrates, and say so in EXPERIMENTS.md.
var goldenExperiments = map[string]string{
	"table1": `Table 1: latency of communicating 1KB (means; simulated reproduction)
                    Func. Invoc. (1KB)  Lambda I/O (S3)  Lambda I/O (DynamoDB)  EC2 I/O (S3)  EC2 I/O (DynamoDB)  EC2 NW (0MQ)
--------------------------------------------------------------------------------------------------------------------------------
Latency (measured)  299.9ms             107.0ms          10.9ms                 106.9ms       10.9ms              289µs       
Compared to best    1038x               371x             37.6x                  370x          37.7x               1.00x       
Paper reported      303ms               108ms            11ms                   106ms         11ms                290µs       
Paper ratios        1,045x              372x             37.9x                  365x          37.9x               1x          
note: trials: 1,000 invocations; 5,000 I/O pairs per storage column; 10,000 ZeroMQ round trips
`,
	"serving": `§3.1 Prediction serving: mean latency per 10-document batch (1,000 batches)
Implementation                                Measured  Paper
---------------------------------------------------------------
Lambda, model fetched from S3, results to S3  549.8ms   559ms
Lambda, compiled-in model, results to SQS     448.7ms   447ms
EC2 m5.large + SQS                            13.2ms    13ms 
EC2 m5.large + ZeroMQ                         2.9ms     2.8ms
note: EC2+SQS vs optimized Lambda: 34x faster (paper says 27x; the paper's own numbers give 447/13 = 34x)
note: EC2+ZeroMQ vs optimized Lambda: 156x faster (paper reports 127x)
`,
	"servingcost": `§3.1 Serving cost at 1M messages/s
Approach            Basis                             Cost per hour  Paper 
-----------------------------------------------------------------------------
SQS requests alone  1.1 requests/msg x 3.6B msgs/hr   $1584          $1,584
EC2 m5.large fleet  291 instances at 3448 msg/s each  $27.94         $27.84
note: cost ratio: 57x in EC2's favor (paper reports 57x)
note: instance throughput measured over a 30s steady-state window (paper: ~3,500 req/s)
`,
	"regionscale": `Region scale: one logical KV table under 4,000 req/s open-loop load
Shards  Done req/s  Speedup  p50      p99      Hottest shard  Storage $/hr
----------------------------------------------------------------------------
1       958         1.00x    3.03s    6.02s    100.0%         $2.59/hr    
2       1910        1.99x    2.08s    4.11s    50.0%          $5.16/hr    
4       3817        3.98x    129.1ms  382.6ms  25.0%          $10.30/hr   
8       3983        4.16x    5.5ms    8.9ms    13.0%          $10.75/hr   
note: per-shard front end limited to 4 concurrent requests (~957 req/s capacity each)
note: open-loop Poisson arrivals from 8 client hosts over 8s of virtual time; 50% writes,
note: 25% consistent reads, 25% eventual reads across 100000 keys (FNV-1a hash routing)
`,
	"statecache": `§4 fluid state: function-colocated CRDT cache vs storage round trips
Variant   Replicas  Gossip   Ops/s  Read p50  Read p99  Stale p99  Gossip/rnd  State $/hr
-------------------------------------------------------------------------------------------
uncached  4         —        419    5.4ms     6.8ms     —          —           $0.76/hr  
cached    2         200.0ms  923    400ns     497ns     198.0ms    6.7KB       $0.37/hr  
cached    4         200.0ms  1790   401ns     498ns     337.5ms    10.4KB      $0.72/hr  
cached    8         200.0ms  3647   400ns     498ns     417.6ms    20.5KB      $1.49/hr  
cached    4         50.0ms   1790   400ns     498ns     95.6ms     5.1KB       $0.73/hr  
cached    4         1.00s    1790   400ns     498ns     1.25s      14.6KB      $0.72/hr  
note: read p99 6.8ms uncached vs 498ns cached at 4 replicas / 200ms gossip (13602x lower)
note: identical op mix both variants: 80% reads / 20% counter deltas over 64 shared keys,
note: 2.0ms mean think time per worker; uncached writes are blackboard read-merge-write pairs
note: state $/hr = DynamoDB request units + cache GB-seconds + write-behind flushes (1.00s cadence);
note: staleness = originating write -> gossip visibility on another replica (measured, p99);
note: gossip/rnd = anti-entropy bytes per completed round, all three legs (-recon swaps the
note: per-key digest leg for an IBF set-reconciliation summary; see the millionkey experiment)
`,
	"regionfailover": `Region failover: 2 regions, 200 req/s each, trunk severed + crash storm for the middle third
Variant  Phase   Done req/s  p50      p99      p99.9    Avail    $/hr    
---------------------------------------------------------------------------
control  pre     402         304.5ms  1.08s    1.31s    100.00%  $2.68/hr
control  during  394         303.5ms  393.2ms  419.5ms  100.00%  $2.58/hr
control  post    402         304.0ms  393.7ms  422.0ms  100.00%  $2.64/hr
chaos    pre     401         305.1ms  1.11s    1.41s    99.85%   $2.68/hr
chaos    during  365         301.4ms  375.5ms  1.11s    92.76%   $2.09/hr
chaos    post    402         303.4ms  393.4ms  422.2ms  100.00%  $3.03/hr
note: chaos: trunk 0-1 severed at 10.00s for 10.00s; all 6 secondary-region VMs crash-reclaimed at the same instant
note: chaos run: 6/2922 gossip rounds aborted, 0 replication batches severed (all writes re-queued),
note: 2555 writes replicated cross-region, 1616 cache flushes, 13.20MB total inter-region egress
note: op mix per request: 40% cache reads, 15% cache counter writes, 20% local eventual reads,
note: 15% consistent reads pinned to the primary region (fail fast when unreachable -> availability),
note: 10% global-table writes; autoscaler (min 2, max 32, 70% util, 2s tick) rebuilds the crashed fleet
Straggler re-dispatch: IBF-named stragglers re-run on spare agents
Rescue    Makespan  Stragglers  Re-dispatched  Rescued
--------------------------------------------------------
off       1.30s     0           0              0      
2 spares  608.2ms   1           1              1      
note: one of 4 workers runs 20x slow over 8 x 50MB partitions; the coordinator tracks outstanding
note: work in a constant-size invertible Bloom filter and names the stragglers by decoding it
note: (1.30s -> 608.2ms makespan, 2.14x faster)
`,
	"retrystorm": `Retry storm: 450 req/s through a 64-worker client pool, hot shard 20x slower for the middle third
Policy       Phase   Done req/s  p50      p99      Avail    HotQ  PoolQ
-------------------------------------------------------------------------
no-retry     pre     449         5.4ms    6.8ms    100.00%  0     0    
no-retry     during  303         5.8ms    250.0ms  67.18%   1006  0    
no-retry     post    428         5.5ms    250.0ms  96.27%   1014  0    
naive-retry  pre     449         5.4ms    6.8ms    100.00%  0     0    
naive-retry  during  133         245.3ms  1.10s    29.55%   2012  273  
naive-retry  post    363         5.7ms    1.09s    81.71%   2029  275  
full-policy  pre     449         5.4ms    6.8ms    100.00%  0     0    
full-policy  during  334         5.3ms    211.3ms  74.20%   6     0    
full-policy  post    444         5.4ms    6.8ms    99.87%   0     0    
full+hedge   pre     449         5.4ms    6.8ms    100.00%  0     0    
full+hedge   during  315         5.3ms    123.2ms  69.87%   6     0    
full+hedge   post    444         5.4ms    6.8ms    99.80%   0     0    
note: no-retry: 13442 calls, 0 retries, 1644 timeouts, 0 hedges, 0 breaker fast-fails (0 trips), 0 shed, 0 budget-denied, 0 gave up in pool
note: naive-retry: 10224 calls, 2383 retries, 3151 timeouts, 0 hedges, 0 breaker fast-fails (0 trips), 0 shed, 0 budget-denied, 3218 gave up in pool
note: full-policy: 13442 calls, 248 retries, 2 timeouts, 0 hedges, 1168 breaker fast-fails (21 trips), 246 shed, 0 budget-denied, 0 gave up in pool
note: full+hedge: 13442 calls, 335 retries, 0 timeouts, 233 hedges, 1366 breaker fast-fails (23 trips), 335 shed, 0 budget-denied, 0 gave up in pool
note: Zipf(s=1.1) keys over 4096 ranks put 34% of traffic on shard 1 (4 slots, ~4.15ms/op);
note: latency percentiles are over every call, success or failure — a timeout is latency the caller saw;
note: HotQ/PoolQ = peak hot-shard admission queue / client-pool backlog per phase (sampled at 50ms);
note: deadline 250.0ms, patience 100.0ms; full policy: backoff 20.0ms..500.0ms, budget 0.2/call (burst 20),
note: breaker window 32 @ 50% (250ms cooldown), server queue bound 6; hedge after 25.0ms
Hot tenant: 12 polite tenants vs 1 abuser on 32 connections, rate-window jail off/on
Jail  Tenant  Done req/s  p50     p99     Rejected
----------------------------------------------------
off   polite  159         35.3ms  40.8ms  0       
off   abuser  798         35.2ms  40.6ms  0       
on    polite  246         5.7ms   29.6ms  0       
on    abuser  273         1.3ms   25.1ms  41268   
note: jail: >30 requests per caller per 100ms window earns a 100ms ban (rejections are fast and cheap);
note: polite tenants think ~40ms; the abuser's 32 connections think ~5ms each, all from one caller identity
`,
	"future": `§4 prototype: case studies on addressable agents with fluid placement
Case study                         FaaS 2018 (measured/paper)  Future prototype   Serverful baseline     
-----------------------------------------------------------------------------------------------------------
Model training (10 epochs, 90GB)   465min / $0.29              21.0min / $0.0131  21.7min / $0.04 (EC2)  
Prediction serving (10-doc batch)  447ms                       2.9ms              2.8ms (EC2+ZeroMQ)     
Leader election round              16.7s                       247.0ms            sub-second (EC2 direct)
note: the prototype bills fine-grained GB-seconds like Lambda, keeping the pay-per-use
note: economics while restoring data locality and network addressability
`,
	"workflow": `§2 Function composition: 8-step signup pipeline, 20 requests
Implementation                           Mean latency  Per step  vs monolith
------------------------------------------------------------------------------
FaaS pipeline (SQS + Lambda + S3 state)  4.65s         580.8ms   786x slower
Single EC2 process (local state)         5.9ms         739µs     1x         
note: paper context: Autodesk's Lambda-based signup averaged ~10 minutes end to end;
note: the infrastructure share measured here is pure queue/invoke/state overhead —
note: the business logic itself accounts for microseconds
`,
	"autoscale": `§1.2 Autoscaling under open-loop load (50ms CPU-bound requests)
Offered load  Lambda p50  Lambda p99  Fixed EC2 p50  Fixed EC2 p99
--------------------------------------------------------------------
10 req/s      348.1ms     434.3ms     50.0ms         81.7ms       
30 req/s      348.7ms     418.1ms     64.7ms         197.3ms      
50 req/s      348.9ms     415.7ms     15.40s         27.98s       
note: fixed fleet capacity is ~40 req/s (2 cores / 50ms); above it the queue diverges
note: Lambda's flat latency is the paper's 'step forward'; its height is the overhead E1 measures
`,
	"training": `§3.1 Model training: Lambda (640MB, data in S3) vs EC2 m4.large (data on EBS)
Platform      Fetch/iter  Optimize/iter  Iter total  Executions  Total latency  Cost   
-----------------------------------------------------------------------------------------
Lambda        2.48s       589.9ms        3.07s       31          460.7min       $0.2915
EC2 m4.large  40.4ms      100.0ms        140.4ms     1           21.1min        $0.0351
Paper Lambda  2.49s       0.59s          3.08s       31          465.0min       $0.29  
Paper EC2     0.04s       0.10s          0.14s       1           21.7min        $0.04  
note: slowdown: Lambda is 21.9x slower (paper: 21x); cost: 8.3x more expensive (paper: 7.3x)
note: real proxy model (128 features) holdout MSE: 9.196 -> 0.914 on Lambda, 9.196 -> 0.914 on EC2
note: 9000 iterations = 10 epochs x 900 batches of 100MB
`,
	"faasscale": `FaaS at region scale: flash-crowd serving vs provisioned concurrency
Provisioned  Done req/s  p50      p99      Cold starts  Peak conc  $/hr    
-----------------------------------------------------------------------------
0            33.1        503.9ms  1.18s    4.9%         24         $0.28/hr
8            33.1        546.4ms  777.4ms  0.5%         11         $0.34/hr
32           33.1        543.9ms  783.7ms  0.0%         12         $0.52/hr
auto (->15)  33.1        522.1ms  1.06s    1.6%         24         $0.49/hr
note: 200 msg/s Poisson bursts, 10s on / 50s off, over 3m0s; warm-pool TTL 30s, so
note: an unprovisioned fleet is cold at every burst front; 24 ESM pollers, batches of 10,
note: handlers write 256B records to a 4-shard kvstore; auto = target-tracking scaler
note: (utilization 0.7, 5s interval), which pays cold starts once and serves later bursts warm
`,
	"figure1": `Figure 1: Google Trends, Serverless vs MapReduce (synthetic reconstruction)
Series      Peak  Peak quarter  2018Q4 value
----------------------------------------------
MapReduce   98.7  2013Q1        47.8        
Serverless  92.9  2018Q4        92.9        
note: serverless interest first exceeds MapReduce's in 2017Q2
note: serverless 2018Q4 / MapReduce historic peak = 0.94 (paper: "recently matched")
note: Figure 1: Google Trends (synthetic reconstruction), 2004-2018
note:   M = MapReduce   S = Serverless   * = both
note: 
note:  92 |                           MMMMMMMMMMMMMMMMMM              S
note:  83 |                        MMMMMMMMMMMMMMMMMMMMMMMM        SSSS
note:  75 |                      MMMMMMMMMMMMMMMMMMMMMMMMMMMM     SSSSS
note:  67 |                     MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM  SSSSSS
note:  58 |                    MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM*SSSSSS
note:  50 |                   MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM******SS
note:  42 |                 MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM*********
note:  33 |                MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM**********
note:  25 |               MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM***********
note:  17 |             MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM************
note:   8 |          MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM**************
note:   0 |MMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMMM*********************
note:     +------------------------------------------------------------
note:      2004    2006    2008    2010    2012    2014    2016    2018    
`,
	"bandwidth": `§3(2): per-function network bandwidth under same-VM packing
Concurrent functions  Per-function bandwidth  vs one SSD (2.5GB/s)
--------------------------------------------------------------------
1                     538.0 Mbps              37.2x slower        
2                     269.0 Mbps              74.3x slower        
4                     134.5 Mbps              149x slower         
8                     67.3 Mbps               297x slower         
12                    44.8 Mbps               446x slower         
16                    33.6 Mbps               595x slower         
20                    26.9 Mbps               743x slower         
paper: 1              538 Mbps                37x slower          
paper: 20             28.7 Mbps               ~700x slower        
note: the collapse is emergent: 20 flows share one 538 Mbps VM NIC under max-min fairness
`,
	"firecracker": `Ablation (footnote 5): Firecracker 125ms microVM startup
Scenario                          Classic cold start  Firecracker  Change
---------------------------------------------------------------------------
Warm invoke (Table 1 conditions)  303.8ms             299.8ms      1.01x 
Cold invoke (every call cold)     957.8ms             417.9ms      2.29x 
note: Table 1's 303ms is invocation-path overhead, not sandbox startup; Firecracker
note: narrows the cold path but remains orders of magnitude above network messaging (290µs)
`,
	"fastnic": `Ablation (footnote 4): 100 Gbps VM NIC, 64-way packing
Concurrent functions  Per-function bandwidth  vs one SSD (2.5GB/s)
--------------------------------------------------------------------
1                     100000 Mbps             5.00x faster        
16                    6250 Mbps               3.20x slower        
64                    1563 Mbps               12.8x slower        
note: paper: "even with 100Gbps/64 cores, under load you get ~200MBps per core,
note: still an order of magnitude slower than a single SSD"
`,
	"electionsweep": `Sensitivity: bully-on-blackboard vs polling rate (6 nodes, timeouts scaled)
Polling rate  Round latency  Read units/s per node  Est. $/hr at 1,000 nodes
------------------------------------------------------------------------------
1 Hz          1.1min         1.3                    $112                    
2 Hz          34.70s         2.6                    $223                    
4 Hz          16.45s         5.1                    $446                    
8 Hz          8.40s          9.8                    $893                    
note: with timeouts scaled to the polling period, round latency shrinks ~linearly with the rate
note: but the storage bill grows linearly too: convergence speed is bought with dollars, not design
`,
	"election": `§3.1 Leader election over a DynamoDB blackboard (4 polls/s)
Metric                                   Measured  Paper     
---------------------------------------------------------------
Election round (crash -> all agree)      16.50s    16.7s     
Share of 15-min lifetime in election     1.8%      1.9%      
Storage cost, 1,000 nodes, steady state  $428/hr   >= $450/hr
Storage cost, 100 nodes (measured)       $5.07/hr  -         
Storage cost, 10 nodes (measured)        $0.13/hr  -         
note: rounds measured: 4 (min 16.40s, max 16.80s)
note: read units per node-cycle: 2.9 at 10 nodes, 13.3 at 100 nodes (board scan + coordinator read)
note: 1,000-node figure applies the measured linear scan law; ~500B records make one scan ~123 units
note: provisioned-capacity alternative (2018's default mode, planned to peak): $62/hr —
note: cheaper than on-demand but still far beyond the marginal cost of direct messaging
`}

// TestCalibratedExperimentsMatchGoldenTraces replays each experiment at
// seed 1 and diffs the rendered artifact byte-for-byte.
func TestCalibratedExperimentsMatchGoldenTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("golden experiment traces in -short mode")
	}
	for id, want := range goldenExperiments {
		e, ok := ExperimentByID(id)
		if !ok {
			t.Fatalf("golden experiment %q missing from registry", id)
		}
		got := ""
		for _, tb := range e.Run(1) {
			got += tb.Render()
		}
		if got != want {
			t.Errorf("experiment %q diverged from its golden trace:\ngot:\n%s\nwant:\n%s", id, got, want)
		}
	}
}
