// Package compute simulates the serverful side of the paper's comparisons:
// EC2-style virtual machine instances with attached EBS volumes, boot
// latency, per-second billing, and network endpoints over which instances
// run the direct-messaging and storage baselines.
package compute

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// ErrTerminated is returned for operations on a terminated instance.
var ErrTerminated = errors.New("compute: instance terminated")

// InstanceType describes a VM shape. Compute throughput is the calibrated
// rate at which single-threaded data-crunching workloads (the paper's
// optimizer step) progress on one core of this instance type.
type InstanceType struct {
	Name        string
	VCPUs       int
	MemoryMB    int
	NICBps      netsim.Bps
	ComputeMBps float64 // workload bytes processed per second per core
}

// Standard instance types, calibrated to the paper:
//   - m4.large runs the Adam optimizer over a 100MB batch in 0.10s
//     => 1000 MB/s per core.
//   - m5.large serves ~3,500 requests/s in the serving cost analysis;
//     its compute rate matters only for trivial per-request work.
var (
	M4Large = InstanceType{
		Name: "m4.large", VCPUs: 2, MemoryMB: 8192,
		NICBps: netsim.Mbps(450), ComputeMBps: 1000,
	}
	M5Large = InstanceType{
		Name: "m5.large", VCPUs: 2, MemoryMB: 8192,
		NICBps: netsim.Gbps(10), ComputeMBps: 1100,
	}
)

// EBS-style volume throughput. Cold reads come off the storage service;
// warm reads are served from the instance page cache. Calibrated so a warm
// 100MB read takes the paper's 0.04s.
const (
	// gp2 volumes sustained ~160 MB/s in 2018.
	coldBps netsim.Bps = 160e6
	// Warm data is in the page cache: 100MB in ~0.04s => 2.5 GB/s.
	warmBps netsim.Bps = 2500e6
)

var (
	// ioLatency is a volume request's seek/queue overhead.
	ioLatency = simrand.Uniform{Lo: 200 * time.Microsecond, Hi: 600 * time.Microsecond}
	// bootDelay is the time from Launch to a usable instance.
	bootDelay = simrand.Uniform{Lo: 45 * time.Second, Hi: 90 * time.Second}
)

// Provider launches and bills instances.
type Provider struct {
	net     *netsim.Network
	rng     *simrand.RNG
	catalog *pricing.Catalog
	meter   *pricing.Meter
	nextID  int
}

// NewProvider creates an EC2-style provider.
func NewProvider(net *netsim.Network, rng *simrand.RNG,
	catalog *pricing.Catalog, meter *pricing.Meter) *Provider {
	return &Provider{net: net, rng: rng, catalog: catalog, meter: meter}
}

// Launch boots an instance of the given type in the given rack, blocking the
// caller through the boot delay. Billing starts at launch.
func (pr *Provider) Launch(p *sim.Proc, typ InstanceType, rack int) *Instance {
	pr.nextID++
	id := fmt.Sprintf("i-%04d", pr.nextID)
	inst := &Instance{
		provider:   pr,
		typ:        typ,
		node:       pr.net.NewNode(id, rack, typ.NICBps),
		launchedAt: p.Now(),
		volume: &Volume{
			rng:  pr.rng.Fork(),
			warm: make(map[string]bool),
		},
	}
	inst.volume.inst = inst
	p.Sleep(bootDelay.Sample(pr.rng))
	return inst
}

// Instance is a running (or terminated) VM.
type Instance struct {
	provider   *Provider
	typ        InstanceType
	node       *netsim.Node
	volume     *Volume
	launchedAt sim.Time
	terminated bool
}

// Type returns the instance type.
func (i *Instance) Type() InstanceType { return i.typ }

// Node returns the instance's network endpoint.
func (i *Instance) Node() *netsim.Node { return i.node }

// Volume returns the instance's attached EBS volume.
func (i *Instance) Volume() *Volume { return i.volume }

// Uptime returns how long the instance has been running.
func (i *Instance) Uptime(now sim.Time) time.Duration { return now - i.launchedAt }

// CostSoFar returns the accrued compute cost at per-second granularity.
func (i *Instance) CostSoFar(now sim.Time) pricing.USD {
	return i.provider.catalog.EC2Hourly(i.typ.Name).PerHour(i.Uptime(now))
}

// Compute blocks the calling process for the time this instance needs to
// crunch through `bytes` of data single-threaded (the optimizer-step model).
func (i *Instance) Compute(p *sim.Proc, bytes int64) error {
	if i.terminated {
		return ErrTerminated
	}
	secs := float64(bytes) / (i.typ.ComputeMBps * 1e6)
	p.Sleep(time.Duration(secs * float64(time.Second)))
	return nil
}

// Terminate stops billing and releases the instance. The accrued cost is
// charged to the provider's meter. Terminating twice is an error.
func (i *Instance) Terminate(p *sim.Proc) error {
	if i.terminated {
		return ErrTerminated
	}
	i.terminated = true
	i.provider.meter.ChargeCost("ec2."+i.typ.Name, i.CostSoFar(p.Now()))
	return nil
}

// Volume is an EBS-style block volume with a warm-block cache model.
type Volume struct {
	inst *Instance
	rng  *simrand.RNG
	warm map[string]bool
}

// Read blocks for the time needed to read size bytes of the named extent.
// The first read of an extent streams from the backing store at cold
// throughput; subsequent reads hit the page cache at warm throughput —
// which is why the paper's EC2 training fetch is 0.04s, not 0.6s.
func (v *Volume) Read(p *sim.Proc, extent string, size int64) error {
	if v.inst.terminated {
		return ErrTerminated
	}
	p.Sleep(ioLatency.Sample(v.rng))
	rate := coldBps
	if v.warm[extent] {
		rate = warmBps
	}
	v.warm[extent] = true
	if size > 0 {
		secs := float64(size) / float64(rate)
		p.Sleep(time.Duration(secs * float64(time.Second)))
	}
	return nil
}

// Write blocks for the time needed to write size bytes (cold throughput;
// writes go to the backing store) and warms the extent.
func (v *Volume) Write(p *sim.Proc, extent string, size int64) error {
	if v.inst.terminated {
		return ErrTerminated
	}
	p.Sleep(ioLatency.Sample(v.rng))
	if size > 0 {
		secs := float64(size) / float64(coldBps)
		p.Sleep(time.Duration(secs * float64(time.Second)))
	}
	v.warm[extent] = true
	return nil
}

// Warm marks an extent as cached without simulating I/O (used to model
// pre-staged data sets).
func (v *Volume) Warm(extent string) { v.warm[extent] = true }
