package faas

import (
	"errors"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestStatsCounters(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	boom := errors.New("boom")
	calls := 0
	f.pf.Register(Function{Name: "flaky", MemoryMB: 256, Timeout: time.Second,
		Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			calls++
			switch calls {
			case 2:
				return nil, boom
			case 3:
				ctx.Proc().Sleep(5 * time.Second) // timeout
			}
			return nil, nil
		}})
	var errs []error
	f.k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			_, _, err := f.pf.Invoke(p, "flaky", nil)
			errs = append(errs, err)
		}
	})
	f.k.Run()
	if len(errs) != 4 || errs[0] != nil || errs[1] != boom ||
		!errors.Is(errs[2], ErrTimeout) || errs[3] != nil {
		t.Errorf("invoke errors = %v, want nil, boom, a timeout, nil", errs)
	}
	st, err := f.pf.Stats("flaky")
	if err != nil {
		t.Fatal(err)
	}
	if st.Invocations != 4 {
		t.Errorf("Invocations = %d", st.Invocations)
	}
	// Cold starts: first call, plus the call after the timeout destroyed
	// the container.
	if st.ColdStarts != 2 {
		t.Errorf("ColdStarts = %d, want 2", st.ColdStarts)
	}
	if st.ColdStartRate() != 0.5 {
		t.Errorf("ColdStartRate = %v", st.ColdStartRate())
	}
	if st.PeakConcurrency != 1 {
		t.Errorf("PeakConcurrency = %d, want 1", st.PeakConcurrency)
	}
}

func TestStatsUnknownFunction(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if _, err := f.pf.Stats("ghost"); !errors.Is(err, ErrNoSuchFunction) {
		t.Errorf("err = %v", err)
	}
}

func TestProvisionedConcurrencyEliminatesColdStarts(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "hot", MemoryMB: 512, Handler: noop})
	if err := f.pf.ProvisionConcurrency(nil, "ghost", 1); err == nil {
		t.Error("provisioning unknown function accepted")
	}
	f.k.Spawn("ops", func(p *sim.Proc) {
		if err := f.pf.ProvisionConcurrency(p, "hot", 3); err != nil {
			t.Errorf("provision: %v", err)
			return
		}
		if got := provisionedIdle(f.pf, "hot"); got != 3 {
			t.Errorf("provisionedIdle = %d, want 3", got)
		}
		// Idle far beyond WarmTTL: provisioned containers must survive.
		p.Sleep(time.Hour)
		var wg sim.WaitGroup
		for i := 0; i < 3; i++ {
			wg.Add(1)
			p.Spawn("inv", func(ip *sim.Proc) {
				defer wg.Done()
				_, rep, err := f.pf.Invoke(ip, "hot", nil)
				if err != nil {
					t.Errorf("invoke: %v", err)
				}
				if rep.ColdStart {
					t.Error("provisioned invocation cold-started")
				}
			})
		}
		wg.Wait(p)
	})
	f.k.Run()
}

func TestProvisionInvalidCount(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	f.pf.Register(Function{Name: "f", MemoryMB: 128, Handler: noop})
	f.k.Spawn("ops", func(p *sim.Proc) {
		if err := f.pf.ProvisionConcurrency(p, "f", 0); err == nil {
			t.Error("zero provisioned concurrency accepted")
		}
	})
	f.k.Run()
}

// provisionedIdle reports how many provisioned containers are currently
// idle for the named function.
func provisionedIdle(pf *Platform, name string) int {
	n := 0
	for _, c := range pf.idle[name] {
		if c.provisioned {
			n++
		}
	}
	return n
}
