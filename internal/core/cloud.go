package core

import (
	"repro/internal/compute"
	"repro/internal/faas"
	"repro/internal/kvstore"
	"repro/internal/msgnet"
	"repro/internal/netsim"
	"repro/internal/objectstore"
	"repro/internal/pricing"
	"repro/internal/queue"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// Rack layout: clients and EC2 instances in racks 0-8, managed services on
// a dedicated "service side" rack so every storage access crosses racks,
// as it does in a real region.
const (
	ClientRack  = 0
	ServiceRack = 9
)

// World is what every simulation here is built on: the deterministic
// kernel, the seeded RNG, the network (on the RNG's first fork), the price
// catalog and the one cost meter everything charges. A Cloud is a World
// plus the managed services; the experiments that assemble their own
// service mix start from a bare World.
type World struct {
	K       *sim.Kernel
	RNG     *simrand.RNG
	Net     *netsim.Network
	Catalog *pricing.Catalog
	Meter   *pricing.Meter
}

// NewWorld builds the kernel, RNG, network, catalog and meter for seed.
func NewWorld(seed uint64) World {
	k := sim.NewKernel()
	rng := simrand.New(seed)
	return World{
		K:       k,
		RNG:     rng,
		Net:     netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency()),
		Catalog: pricing.Fall2018(),
		Meter:   &pricing.Meter{},
	}
}

// Close tears down the kernel, reaping any parked processes.
func (w *World) Close() { w.K.Close() }

// Cloud is a fully assembled simulated region: the World, the four
// managed services, the FaaS platform, the EC2 provider and direct
// messaging.
type Cloud struct {
	World

	S3     *objectstore.Store
	DDB    *kvstore.Store
	SQS    *queue.Service
	Lambda *faas.Platform
	EC2    *compute.Provider
	Mesh   *msgnet.Mesh
}

// NewCloud assembles a region with the calibrated defaults.
func NewCloud(seed uint64) *Cloud {
	return NewCloudWith(seed, DefaultConfig())
}

// NewCloudWith assembles a region with explicit configuration (ablations).
func NewCloudWith(seed uint64, cfg Config) *Cloud {
	w := NewWorld(seed)
	net, rng, catalog, meter := w.Net, w.RNG, w.Catalog, w.Meter
	return &Cloud{
		World:  w,
		S3:     objectstore.New("s3", net, ServiceRack, rng.Fork(), objectstore.DefaultConfig(), catalog, meter),
		DDB:    kvstore.New("dynamodb", net, ServiceRack, rng.Fork(), cfg.DDB, catalog, meter),
		SQS:    queue.NewService("sqs", net, ServiceRack, rng.Fork(), catalog, meter),
		Lambda: faas.New("lambda", net, rng.Fork(), cfg.Lambda, catalog, meter),
		EC2:    compute.NewProvider(net, rng.Fork(), catalog, meter),
		Mesh:   msgnet.NewMesh(net, rng.Fork()),
	}
}

// ClientNode registers a client host (e.g. a measurement driver) in the
// client rack with a 10 Gbps NIC.
func (c *Cloud) ClientNode(name string) *netsim.Node {
	return c.Net.NewNode(name, ClientRack, netsim.Gbps(10))
}
