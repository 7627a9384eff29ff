package objectstore

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
)

type fixture struct {
	k      *sim.Kernel
	store  *Store
	caller *netsim.Node
	meter  *pricing.Meter
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	k := sim.NewKernel()
	t.Cleanup(k.Close)
	rng := simrand.New(42)
	net := netsim.NewNetwork(k, rng.Fork(), netsim.DefaultLatency())
	meter := &pricing.Meter{}
	store := New("s3", net, 9, rng.Fork(), cfg, pricing.Fall2018(), meter)
	caller := net.NewNode("caller", 0, netsim.Mbps(538))
	return &fixture{k: k, store: store, caller: caller, meter: meter}
}

func TestPutGetRoundTrip(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var got Object
	var err error
	f.k.Spawn("client", func(p *sim.Proc) {
		f.store.Put(p, f.caller, "k", []byte("hello"))
		got, err = f.store.Get(p, f.caller, "k")
	})
	f.k.Run()
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if string(got.Data) != "hello" || got.Size != 5 {
		t.Errorf("got %+v", got)
	}
}

func TestGetMissingKey(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var err error
	f.k.Spawn("client", func(p *sim.Proc) {
		_, err = f.store.Get(p, f.caller, "nope")
	})
	f.k.Run()
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
}

// Calibration: a 1KB write+read pair should land near the paper's 106-108ms.
func TestSmallObjectWriteReadLatencyMatchesPaper(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	const trials = 500
	var total sim.Time
	f.k.Spawn("client", func(p *sim.Proc) {
		payload := make([]byte, 1024)
		for i := 0; i < trials; i++ {
			start := p.Now()
			f.store.Put(p, f.caller, "k", payload)
			if _, err := f.store.Get(p, f.caller, "k"); err != nil {
				t.Errorf("Get: %v", err)
			}
			total += p.Now() - start
		}
	})
	f.k.Run()
	mean := time.Duration(int64(total) / trials)
	if mean < 98*time.Millisecond || mean > 118*time.Millisecond {
		t.Errorf("1KB write+read mean = %v, paper reports 106-108ms", mean)
	}
}

// Calibration: a 100MB GET from a 538Mbps host should take ~2.49s.
func TestBulkFetchMatchesPaperTrainingFetch(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var elapsed sim.Time
	f.k.Spawn("client", func(p *sim.Proc) {
		f.store.PutSized(p, f.caller, "batch", 100e6)
		start := p.Now()
		if _, err := f.store.Get(p, f.caller, "batch"); err != nil {
			t.Errorf("Get: %v", err)
		}
		elapsed = p.Now() - start
	})
	f.k.Run()
	if elapsed < 2300*time.Millisecond || elapsed > 2700*time.Millisecond {
		t.Errorf("100MB fetch = %v, paper reports 2.49s", elapsed)
	}
}

func TestSizedObjectHasNoData(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var got Object
	f.k.Spawn("client", func(p *sim.Proc) {
		f.store.PutSized(p, f.caller, "big", 12345)
		got, _ = f.store.Get(p, f.caller, "big")
	})
	f.k.Run()
	if got.Data != nil || got.Size != 12345 {
		t.Errorf("got %+v, want sized object", got)
	}
}

func TestHeadSkipsTransfer(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var headTime, getTime sim.Time
	f.k.Spawn("client", func(p *sim.Proc) {
		f.store.PutSized(p, f.caller, "big", 500e6)
		s := p.Now()
		if _, err := f.store.Head(p, f.caller, "big"); err != nil {
			t.Errorf("Head: %v", err)
		}
		headTime = p.Now() - s
		s = p.Now()
		_, _ = f.store.Get(p, f.caller, "big")
		getTime = p.Now() - s
	})
	f.k.Run()
	if headTime > 200*time.Millisecond {
		t.Errorf("Head took %v, should skip payload transfer", headTime)
	}
	if getTime < time.Second {
		t.Errorf("Get of 500MB took %v, should include transfer", getTime)
	}
}

func TestDeleteAndList(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var listed []string
	f.k.Spawn("client", func(p *sim.Proc) {
		f.store.Put(p, f.caller, "a/1", []byte("x"))
		f.store.Put(p, f.caller, "a/2", []byte("y"))
		f.store.Put(p, f.caller, "b/1", []byte("z"))
		f.store.Delete(p, f.caller, "a/2")
		f.store.Delete(p, f.caller, "missing") // no error, like S3
		listed = f.store.List(p, f.caller, "a/")
	})
	f.k.Run()
	if len(listed) != 1 || listed[0] != "a/1" {
		t.Errorf("List = %v, want [a/1]", listed)
	}
}

func TestOverwriteVisibleImmediatelyByDefault(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var got Object
	f.k.Spawn("client", func(p *sim.Proc) {
		f.store.Put(p, f.caller, "k", []byte("v1"))
		f.store.Put(p, f.caller, "k", []byte("v2"))
		got, _ = f.store.Get(p, f.caller, "k")
	})
	f.k.Run()
	if string(got.Data) != "v2" {
		t.Errorf("read %q after overwrite, want v2", got.Data)
	}
}

func TestRequestsAreMetered(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.k.Spawn("client", func(p *sim.Proc) {
		f.store.Put(p, f.caller, "k", []byte("x"))
		_, _ = f.store.Get(p, f.caller, "k")
		_, _ = f.store.Get(p, f.caller, "k")
	})
	f.k.Run()
	if f.meter.Count("s3.put") != 1 {
		t.Errorf("s3.put count = %d, want 1", f.meter.Count("s3.put"))
	}
	if f.meter.Count("s3.get") != 2 {
		t.Errorf("s3.get count = %d, want 2", f.meter.Count("s3.get"))
	}
	if f.meter.Total() <= 0 {
		t.Error("no cost accumulated")
	}
}

func TestPutCopiesCallerBuffer(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	var got Object
	f.k.Spawn("client", func(p *sim.Proc) {
		buf := []byte("orig")
		f.store.Put(p, f.caller, "k", buf)
		buf[0] = 'X' // caller mutates after the call
		got, _ = f.store.Get(p, f.caller, "k")
	})
	f.k.Run()
	if string(got.Data) != "orig" {
		t.Errorf("stored data aliased caller buffer: %q", got.Data)
	}
}

func TestConcurrentGettersShareConnectionLimitsIndependently(t *testing.T) {
	// Two concurrent 100MB GETs from one 538Mbps host: the host NIC
	// (67.25 MB/s) is the bottleneck, shared between both transfers, so
	// each sees ~33.6 MB/s and takes ~3s instead of 2.49s.
	f := newFixture(t, DefaultConfig())
	var done [2]sim.Time
	f.k.Spawn("setup", func(p *sim.Proc) {
		f.store.PutSized(p, f.caller, "b0", 100e6)
		f.store.PutSized(p, f.caller, "b1", 100e6)
		for i := 0; i < 2; i++ {
			i := i
			p.Spawn("getter", func(g *sim.Proc) {
				start := g.Now()
				_, _ = f.store.Get(g, f.caller, "b0")
				done[i] = g.Now() - start
			})
		}
	})
	f.k.Run()
	for i, d := range done {
		if d < 2800*time.Millisecond || d > 3400*time.Millisecond {
			t.Errorf("concurrent GET %d took %v, want ~3s (NIC contention)", i, d)
		}
	}
}
