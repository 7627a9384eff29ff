package kvstore

// Eventual-consistency edge cases: the brand-new-key window (a lagging
// replica can miss a key that was only just created), disabled replication
// lag, and reads of an overwrite inside the window. These are the corners
// the election case study's correctness quietly depends on.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestEventualReadCanMissBrandNewKey: within the replication-lag window of
// a key's *first* write there is no previous version to serve, so an
// eventually consistent read may return ErrNotFound — and must never after
// the window closes.
func TestEventualReadCanMissBrandNewKey(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	misses, hits := 0, 0
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("fresh/%d", i)
			if _, err := f.store.Put(p, f.caller, key, []byte("v")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			// The read lands ~5ms after the write, deep inside the
			// 50ms replication window.
			it, err := f.store.Get(p, f.caller, key, false)
			switch {
			case errors.Is(err, ErrNotFound):
				misses++
			case err != nil:
				t.Fatalf("Get: %v", err)
			case it.Version != 1:
				t.Fatalf("phantom version %d", it.Version)
			default:
				hits++
			}
		}
		// After the window, the key is always visible.
		p.Sleep(100 * time.Millisecond)
		for i := 0; i < 300; i++ {
			if _, err := f.store.Get(p, f.caller, fmt.Sprintf("fresh/%d", i), false); err != nil {
				t.Errorf("settled eventual read missed fresh/%d: %v", i, err)
			}
		}
	})
	f.k.Run()
	if misses == 0 {
		t.Error("no in-window eventual read missed a brand-new key; lag window inert")
	}
	if hits == 0 {
		t.Error("every in-window eventual read missed; expected a mix")
	}
}

// TestZeroReplicationLagReadsAreAlwaysFresh: ReplicationLag <= 0 disables
// staleness entirely — eventual reads see every write immediately, new keys
// included.
func TestZeroReplicationLagReadsAreAlwaysFresh(t *testing.T) {
	for _, lag := range []time.Duration{0, -time.Second} {
		cfg := DefaultConfig()
		cfg.ReplicationLag = lag
		f := newFixture(t, cfg)
		f.k.Spawn("c", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k/%d", i)
				if _, err := f.store.Put(p, f.caller, key, []byte("v1")); err != nil {
					t.Fatalf("Put: %v", err)
				}
				if _, err := f.store.Put(p, f.caller, key, []byte("v2")); err != nil {
					t.Fatalf("Put: %v", err)
				}
				it, err := f.store.Get(p, f.caller, key, false)
				if err != nil {
					t.Fatalf("lag=%v: eventual read missed %s: %v", lag, key, err)
				}
				if it.Version != 2 || string(it.Value) != "v2" {
					t.Fatalf("lag=%v: stale read %+v with staleness disabled", lag, it)
				}
			}
		})
		f.k.Run()
	}
}

// TestEventualReadCanServePreviousVersion: an overwrite inside the window
// may surface the prior version with its own bytes, never anything older
// or newer.
func TestEventualReadCanServePreviousVersion(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	sawOld, sawNew := 0, 0
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 300; i++ {
			key := fmt.Sprintf("ow/%d", i)
			if _, err := f.store.Put(p, f.caller, key, []byte("v1")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			p.Sleep(60 * time.Millisecond) // settle the first write
			if _, err := f.store.Put(p, f.caller, key, []byte("v2")); err != nil {
				t.Fatalf("Put: %v", err)
			}
			it, err := f.store.Get(p, f.caller, key, false)
			if err != nil {
				t.Fatalf("overwritten key vanished: %v", err)
			}
			switch {
			case it.Version == 1 && string(it.Value) == "v1":
				sawOld++
			case it.Version == 2 && string(it.Value) == "v2":
				sawNew++
			default:
				t.Fatalf("impossible read %+v", it)
			}
		}
	})
	f.k.Run()
	if sawOld == 0 || sawNew == 0 {
		t.Errorf("in-window overwrite reads: %d old / %d new, want a mix", sawOld, sawNew)
	}
}
