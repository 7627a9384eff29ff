// Package objectstore simulates an S3-style large-object storage service:
// a multi-tenant front end reachable over the network, per-request service
// latency and per-connection streaming throughput, as S3 behaved in 2018.
//
// Objects can carry real payload bytes (small objects like serialized
// models) or be "sized" — metadata-only objects standing in for bulk data
// such as the 90 GB training corpus, which it would be pointless to
// materialize. Transfer timing is identical either way.
//
// The endpoint node, request round trip, and metering all live in the
// shared service layer (internal/service); this package owns only what is
// S3-specific: objects and streaming.
package objectstore

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/simrand"
)

// ErrNotFound is returned when a key has no object.
var ErrNotFound = errors.New("objectstore: key not found")

// Object describes a stored blob. Data is nil for sized (virtual) objects.
type Object struct {
	Key     string
	Size    int64
	Data    []byte
	Version int64
}

// opLatency is the per-request service time (excluding network propagation
// and payload streaming). The paper measures a 1KB write+read pair at
// 106–108 ms from EC2 and Lambda alike, so it is ~52 ms median per
// operation. Calibration provenance is documented in EXPERIMENTS.md.
var opLatency simrand.Dist = simrand.LogNormal{Median: 52 * time.Millisecond, Sigma: 0.08}

// nicBps is the front end's aggregate network capacity (400 Gbps).
const nicBps netsim.Bps = 400e9 / 8

// Config holds the store's one setting a test varies.
type Config struct {
	// PerConnBps caps a single connection's streaming throughput.
	// Calibrated so that a 100 MB GET from Lambda takes ~2.49 s.
	PerConnBps netsim.Bps
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{PerConnBps: netsim.MBps(41.2)}
}

// Store is a simulated object store.
type Store struct {
	fe  *service.Frontend
	cfg Config

	objects map[string]Object
	nextVer int64
}

// New creates a store attached to the network in rack `rack`.
func New(name string, net *netsim.Network, rack int, rng *simrand.RNG,
	cfg Config, catalog *pricing.Catalog, meter *pricing.Meter) *Store {
	return &Store{
		fe:      service.NewFrontend(name, net, rack, rng, opLatency, nicBps, catalog, meter),
		cfg:     cfg,
		objects: make(map[string]Object),
	}
}

// Node returns the store's network endpoint.
func (s *Store) Node() *netsim.Node { return s.fe.Node() }

// stream moves size bytes between caller and store through the caller's NIC,
// the store's NIC and a fresh per-connection throughput limiter.
func (s *Store) stream(p *sim.Proc, caller *netsim.Node, size int64) {
	if size <= 0 {
		return
	}
	fabric := s.fe.Net().Fabric()
	conn := fabric.NewLink(s.fe.Name()+"/conn", s.cfg.PerConnBps)
	fabric.Transfer(p, size, caller.NIC(), s.fe.Node().NIC(), conn)
}

// Put stores data under key, blocking the caller for the upload.
func (s *Store) Put(p *sim.Proc, caller *netsim.Node, key string, data []byte) Object {
	return s.put(p, caller, key, int64(len(data)), append([]byte(nil), data...))
}

// PutSized stores a metadata-only object of the given size; the transfer
// takes as long as a real upload of that many bytes would.
func (s *Store) PutSized(p *sim.Proc, caller *netsim.Node, key string, size int64) Object {
	if size < 0 {
		panic("objectstore: negative size")
	}
	return s.put(p, caller, key, size, nil)
}

func (s *Store) put(p *sim.Proc, caller *netsim.Node, key string, size int64, data []byte) Object {
	s.fe.Charge("s3.put", 1, s.fe.Catalog().S3PutPerRequest)
	s.fe.RoundTrip(p, caller, 0)
	s.stream(p, caller, size)
	s.nextVer++
	obj := Object{Key: key, Size: size, Data: data, Version: s.nextVer}
	s.objects[key] = obj
	return obj
}

// Get retrieves the object at key, blocking the caller for the download.
func (s *Store) Get(p *sim.Proc, caller *netsim.Node, key string) (Object, error) {
	s.fe.Charge("s3.get", 1, s.fe.Catalog().S3GetPerRequest)
	if err := s.fe.RoundTripErr(p, caller, 0); err != nil {
		return Object{}, err
	}
	obj, ok := s.objects[key]
	if !ok {
		return Object{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	s.stream(p, caller, obj.Size)
	return obj, nil
}

// Head returns object metadata without transferring the payload.
func (s *Store) Head(p *sim.Proc, caller *netsim.Node, key string) (Object, error) {
	s.fe.Charge("s3.get", 1, s.fe.Catalog().S3GetPerRequest)
	if err := s.fe.RoundTripErr(p, caller, 0); err != nil {
		return Object{}, err
	}
	obj, ok := s.objects[key]
	if !ok {
		return Object{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	obj.Data = nil
	return obj, nil
}

// Delete removes key. Deleting a missing key is not an error (like S3).
func (s *Store) Delete(p *sim.Proc, caller *netsim.Node, key string) {
	s.fe.Charge("s3.put", 1, s.fe.Catalog().S3PutPerRequest)
	s.fe.RoundTrip(p, caller, 0)
	delete(s.objects, key)
}

// List returns the keys with the given prefix, sorted, without payloads.
func (s *Store) List(p *sim.Proc, caller *netsim.Node, prefix string) []string {
	s.fe.Charge("s3.get", 1, s.fe.Catalog().S3GetPerRequest)
	s.fe.RoundTrip(p, caller, 0)
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
