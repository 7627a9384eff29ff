package service

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestShedOnFullQueue(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 1)
	fe.SetAdmission(AdmissionConfig{MaxQueue: 1})
	errs := make([]error, 3)
	took := make([]sim.Time, 3)
	for i := 0; i < 3; i++ {
		k.Spawn("c", func(p *sim.Proc) {
			p.Sleep(sim.Time(i) * 200 * time.Microsecond)
			start := p.Now()
			errs[i] = fe.RoundTripErr(p, caller, 0)
			took[i] = p.Now() - start
		})
	}
	k.Run()
	if errs[0] != nil || errs[1] != nil {
		t.Errorf("first two requests errored: %v, %v (want served)", errs[0], errs[1])
	}
	if !errors.Is(errs[2], ErrShed) {
		t.Errorf("third request err = %v, want ErrShed (queue full)", errs[2])
	}
	if !Overloaded(errs[2]) {
		t.Error("Overloaded(ErrShed) = false")
	}
	// A shed request pays propagation only — no service time, no queueing.
	if took[2] > 2*time.Millisecond {
		t.Errorf("shed request took %v, want < 2ms (propagation only)", took[2])
	}
	st := fe.Stats()
	if st.Shed != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v, want Shed=1, Requests=2", st)
	}
}

func TestShedRequiresFiniteSlots(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0) // unlimited concurrency
	fe.SetAdmission(AdmissionConfig{MaxQueue: 1})
	var err error
	for i := 0; i < 4; i++ {
		k.Spawn("c", func(p *sim.Proc) {
			if e := fe.RoundTripErr(p, caller, 0); e != nil {
				err = e
			}
		})
	}
	k.Run()
	if err != nil {
		t.Errorf("unlimited front end shed a request: %v", err)
	}
}

func TestJailBansHotCaller(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	fe.SetAdmission(AdmissionConfig{JailWindow: time.Second, JailLimit: 5})
	var served, jailed int
	var afterBan error
	k.Spawn("hot", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := fe.RoundTripErr(p, caller, 0); err == nil {
				served++
			} else if errors.Is(err, ErrJailed) {
				jailed++
			} else {
				t.Errorf("request %d: unexpected err %v", i, err)
			}
		}
		// The ban lasts one JailWindow and must then lift.
		p.Sleep(1200 * time.Millisecond)
		afterBan = fe.RoundTripErr(p, caller, 0)
	})
	k.Run()
	if served != 5 || jailed != 5 {
		t.Errorf("served=%d jailed=%d, want 5/5 (limit 5, then banned)", served, jailed)
	}
	if afterBan != nil {
		t.Errorf("request after ban expiry = %v, want served", afterBan)
	}
	if st := fe.Stats(); st.Jailed != 5 {
		t.Errorf("stats.Jailed = %d, want 5", st.Jailed)
	}
}

func TestJailIsPerCaller(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	other := fe.Net().NewNode("other", 0, netsim.Gbps(10))
	fe.SetAdmission(AdmissionConfig{JailWindow: 100 * time.Millisecond, JailLimit: 2})
	var hotErr, bystanderErr error
	k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			hotErr = fe.RoundTripErr(p, caller, 0)
		}
		bystanderErr = fe.RoundTripErr(p, other, 0)
	})
	k.Run()
	if !errors.Is(hotErr, ErrJailed) {
		t.Errorf("hot caller's 3rd request = %v, want ErrJailed", hotErr)
	}
	if bystanderErr != nil {
		t.Errorf("bystander request = %v, want served (jail is per caller)", bystanderErr)
	}
}

func TestJailWindowResets(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	fe.SetAdmission(AdmissionConfig{JailWindow: 50 * time.Millisecond, JailLimit: 3})
	var errs []error
	k.Spawn("c", func(p *sim.Proc) {
		// 3 requests per window at a polite pace: never banned.
		for burst := 0; burst < 3; burst++ {
			for i := 0; i < 3; i++ {
				errs = append(errs, fe.RoundTripErr(p, caller, 0))
			}
			p.Sleep(60 * time.Millisecond)
		}
	})
	k.Run()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d = %v, want served (under the per-window limit)", i, err)
		}
	}
}

func TestVoidRoundTripPanicsOnRejection(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	fe.SetAdmission(AdmissionConfig{JailWindow: time.Second, JailLimit: 1})
	panicked := false
	k.Spawn("c", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		fe.RoundTrip(p, caller, 0)
		fe.RoundTrip(p, caller, 0) // over the limit: must panic, not silently succeed
	})
	k.Run()
	if !panicked {
		t.Error("void RoundTrip swallowed an admission rejection")
	}
}

func TestSetAdmissionZeroDisables(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	fe.SetAdmission(AdmissionConfig{JailWindow: time.Second, JailLimit: 1})
	fe.SetAdmission(AdmissionConfig{})
	var err error
	k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if e := fe.RoundTripErr(p, caller, 0); e != nil {
				err = e
			}
		}
	})
	k.Run()
	if err != nil {
		t.Errorf("request rejected after admission disabled: %v", err)
	}
}

func TestSlowdownScalesServiceTime(t *testing.T) {
	k, fe, caller, _ := newFrontend(t, 0)
	fe.SetSlowdown(10)
	var elapsed sim.Time
	k.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		fe.RoundTrip(p, caller, 0)
		elapsed = p.Now() - start
	})
	k.Run()
	// 10× the constant 4ms service time, plus two sub-ms propagation legs.
	if elapsed < 40*time.Millisecond || elapsed > 42*time.Millisecond {
		t.Errorf("slowed round trip took %v, want ~40ms service", elapsed)
	}
	fe.SetSlowdown(1)
	k.Spawn("c", func(p *sim.Proc) {
		start := p.Now()
		fe.RoundTrip(p, caller, 0)
		elapsed = p.Now() - start
	})
	k.Run()
	if elapsed > 6*time.Millisecond {
		t.Errorf("round trip after reset took %v, want ~4ms", elapsed)
	}
}
