// Package objectstore simulates an S3-style large-object storage service:
// a multi-tenant front end reachable over the network, per-request service
// latency, per-connection streaming throughput, and (optionally) eventual
// consistency for overwrites, as S3 behaved in 2018.
//
// Objects can carry real payload bytes (small objects like serialized
// models) or be "sized" — metadata-only objects standing in for bulk data
// such as the 90 GB training corpus, which it would be pointless to
// materialize. Transfer timing is identical either way.
//
// The endpoint node, request round trip, and metering all live in the
// shared service layer (internal/service); this package owns only what is
// S3-specific: object versions and streaming.
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

// ErrNotFound is returned when a key has no (visible) object.
var ErrNotFound = errors.New("objectstore: key not found")

// Object describes a stored blob. Data is nil for sized (virtual) objects.
type Object struct {
	Key     string
	Size    int64
	Data    []byte
	Version int64
}

// Config holds the store's service-level parameters. Calibration provenance
// is documented in EXPERIMENTS.md.
type Config struct {
	// OpLatency is the per-request service time (excluding network
	// propagation and payload streaming). The paper measures a 1KB
	// write+read pair at 106–108 ms from EC2 and Lambda alike, so the
	// default is ~52 ms median per operation.
	OpLatency simrand.Dist

	// PerConnBps caps a single connection's streaming throughput.
	// Calibrated so that a 100 MB GET from Lambda takes ~2.49 s.
	PerConnBps netsim.Bps

	// OverwriteStaleness, when positive, makes overwrites eventually
	// consistent: a read within the window of an overwrite may return
	// the previous version (new-key PUTs are read-after-write, like S3).
	OverwriteStaleness time.Duration

	// NICBps is the front end's aggregate network capacity.
	NICBps netsim.Bps
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		OpLatency:  simrand.LogNormal{Median: 52 * time.Millisecond, Sigma: 0.08},
		PerConnBps: netsim.MBps(41.2),
		NICBps:     netsim.Gbps(400),
	}
}

// version is one write of a key.
type version struct {
	obj       Object
	writtenAt sim.Time
}

// Store is a simulated object store.
type Store struct {
	fe  *service.Frontend
	cfg Config

	// objects maps key -> version history (latest last). History beyond
	// the staleness window is pruned on write.
	objects map[string][]version
	nextVer int64
}

// New creates a store attached to the network in rack `rack`.
func New(name string, net *netsim.Network, rack int, rng *simrand.RNG,
	cfg Config, catalog *pricing.Catalog, meter *pricing.Meter) *Store {
	return &Store{
		fe: service.NewFrontend(name, net, rack, rng, cfg.OpLatency,
			cfg.NICBps, catalog, meter),
		cfg:     cfg,
		objects: make(map[string][]version),
	}
}

// Node returns the store's network endpoint.
func (s *Store) Node() *netsim.Node { return s.fe.Node() }

// Meter returns the store's cost meter.
func (s *Store) Meter() *pricing.Meter { return s.fe.Meter() }

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
	hist := s.objects[key]
	// Prune history that can no longer be served.
	if n := len(hist); n > 1 {
		hist = hist[n-1:]
	}
	s.objects[key] = append(hist, version{obj: obj, writtenAt: p.Now()})
	return obj
}

// Get retrieves the object at key, blocking the caller for the download.
// Under eventual overwrite consistency, a recent overwrite may yield the
// previous version.
func (s *Store) Get(p *sim.Proc, caller *netsim.Node, key string) (Object, error) {
	s.fe.Charge("s3.get", 1, s.fe.Catalog().S3GetPerRequest)
	if err := s.fe.RoundTripErr(p, caller, 0); err != nil {
		return Object{}, err
	}
	obj, ok := s.visible(p.Now(), key)
	if !ok {
		return Object{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	s.stream(p, caller, obj.Size)
	return obj, nil
}

// visible resolves which version of key a read started at time now sees.
func (s *Store) visible(now sim.Time, key string) (Object, bool) {
	hist := s.objects[key]
	if len(hist) == 0 {
		return Object{}, false
	}
	latest := hist[len(hist)-1]
	if s.cfg.OverwriteStaleness > 0 && len(hist) > 1 &&
		now-latest.writtenAt < s.cfg.OverwriteStaleness {
		// Overwrite still propagating: serve the prior version with
		// probability proportional to remaining window.
		remain := float64(s.cfg.OverwriteStaleness-(now-latest.writtenAt)) /
			float64(s.cfg.OverwriteStaleness)
		if s.fe.RNG().Float64() < remain {
			return hist[len(hist)-2].obj, true
		}
	}
	return latest.obj, true
}

// Head returns object metadata without transferring the payload.
func (s *Store) Head(p *sim.Proc, caller *netsim.Node, key string) (Object, error) {
	s.fe.Charge("s3.get", 1, s.fe.Catalog().S3GetPerRequest)
	if err := s.fe.RoundTripErr(p, caller, 0); err != nil {
		return Object{}, err
	}
	obj, ok := s.visible(p.Now(), key)
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

// Len reports the number of stored keys (test hook; no simulated latency).
func (s *Store) Len() int { return len(s.objects) }
