package faas

import (
	"testing"
	"time"

	"repro/internal/sim"
)

// run drives the kernel until fn's spawned process completes. The horizon
// stays below the 10-minute WarmTTL so post-run warm-pool assertions see
// the pool as the driver left it, not after the eager reaper has correctly
// expired it.
func runDriver(t *testing.T, f *fixture, fn func(p *sim.Proc)) {
	t.Helper()
	done := false
	f.k.Spawn("driver", func(p *sim.Proc) {
		fn(p)
		done = true
	})
	f.k.RunUntil(f.k.Now() + sim.Time(5*time.Minute))
	if !done {
		t.Fatal("driver did not finish")
	}
}

// TestRegisterReplaceDrainsWarmPool: re-registering a function must retire
// its idle warm containers so the next invocation cold-starts into the new
// deployment instead of reusing a container holding the old handler's
// container-local state.
func TestRegisterReplaceDrainsWarmPool(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	v1 := Function{Name: "fn", MemoryMB: 128, Timeout: time.Minute,
		Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			ctx.Local()["deploy"] = "v1"
			return []byte("v1"), nil
		}}
	if err := f.pf.Register(v1); err != nil {
		t.Fatal(err)
	}
	runDriver(t, f, func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if _, _, err := f.pf.Invoke(p, "fn", nil); err != nil {
				t.Error(err)
			}
		}
	})
	if got := f.pf.WarmIdle("fn"); got != 1 {
		t.Fatalf("warm idle after sequential invokes = %d, want 1", got)
	}

	v2 := Function{Name: "fn", MemoryMB: 128, Timeout: time.Minute,
		Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			if stale, ok := ctx.Local()["deploy"]; ok {
				t.Errorf("v2 invocation saw v1 container-local state %q", stale)
			}
			if !ctx.ColdStart() {
				t.Error("first invocation after replace reused a stale warm container")
			}
			return []byte("v2"), nil
		}}
	if err := f.pf.Register(v2); err != nil {
		t.Fatal(err)
	}
	if got := f.pf.WarmIdle("fn"); got != 0 {
		t.Fatalf("warm idle after replace = %d, want 0 (pool drained)", got)
	}
	runDriver(t, f, func(p *sim.Proc) {
		resp, rep, err := f.pf.Invoke(p, "fn", nil)
		if err != nil {
			t.Error(err)
		}
		if string(resp) != "v2" {
			t.Errorf("response = %q, want v2", resp)
		}
		if !rep.ColdStart {
			t.Error("report says warm start after replace")
		}
	})
}

// TestRegisterReplaceKeepsStats: counters are function-level state keyed
// by name — a deploy must not reset them.
func TestRegisterReplaceKeepsStats(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	if err := f.pf.Register(Function{Name: "fn", MemoryMB: 128,
		Timeout: time.Minute, Handler: noop}); err != nil {
		t.Fatal(err)
	}
	runDriver(t, f, func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			f.pf.Invoke(p, "fn", nil)
		}
	})
	if st, _ := f.pf.Stats("fn"); st.Invocations != 2 {
		t.Fatalf("invocations before replace = %d, want 2", st.Invocations)
	}
	if err := f.pf.Register(Function{Name: "fn", MemoryMB: 128,
		Timeout: time.Minute, Handler: noop}); err != nil {
		t.Fatal(err)
	}
	if st, _ := f.pf.Stats("fn"); st.Invocations != 2 {
		t.Errorf("invocations reset by replace: %d, want 2", st.Invocations)
	}
	runDriver(t, f, func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			f.pf.Invoke(p, "fn", nil)
		}
	})
	if st, _ := f.pf.Stats("fn"); st.Invocations != 4 {
		t.Errorf("cumulative invocations = %d, want 4", st.Invocations)
	}
}

// TestRegisterReplaceDropsInFlightContainer: a container that is executing
// the old deployment when the replace happens must finish but not re-enter
// the warm pool.
func TestRegisterReplaceDropsInFlightContainer(t *testing.T) {
	f := newFixture(t, DefaultConfig())
	slow := Function{Name: "fn", MemoryMB: 128, Timeout: time.Minute,
		Handler: func(ctx *Ctx, _ []byte) ([]byte, error) {
			ctx.Proc().Sleep(10 * time.Second)
			return []byte("old"), nil
		}}
	if err := f.pf.Register(slow); err != nil {
		t.Fatal(err)
	}
	var resp []byte
	f.k.Spawn("invoker", func(p *sim.Proc) {
		resp, _, _ = f.pf.Invoke(p, "fn", nil)
	})
	// Let the invocation start executing, then replace mid-flight.
	f.k.RunUntil(sim.Time(5 * time.Second))
	if err := f.pf.Register(Function{Name: "fn", MemoryMB: 128,
		Timeout: time.Minute, Handler: noop}); err != nil {
		t.Fatal(err)
	}
	f.k.RunUntil(sim.Time(time.Hour))
	if string(resp) != "old" {
		t.Fatalf("in-flight invocation response = %q, want old deployment's output", resp)
	}
	if got := f.pf.WarmIdle("fn"); got != 0 {
		t.Errorf("stale in-flight container re-entered the warm pool (idle = %d)", got)
	}
}

// TestRegisterReplaceReleasesVMSlots: draining must free the containers'
// VM packing slots so capacity is not leaked across deploys.
func TestRegisterReplaceReleasesVMSlots(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ContainersPerVM = 2
	f := newFixture(t, cfg)
	if err := f.pf.Register(Function{Name: "fn", MemoryMB: 128,
		Timeout: time.Minute, Handler: noop}); err != nil {
		t.Fatal(err)
	}
	// Warm up two containers in parallel (fills one VM).
	runDriver(t, f, func(p *sim.Proc) {
		var wg sim.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			p.Spawn("par", func(ip *sim.Proc) {
				defer wg.Done()
				f.pf.Invoke(ip, "fn", nil)
			})
		}
		wg.Wait(p)
	})
	if got := f.pf.VMCount(); got != 1 {
		t.Fatalf("VM count = %d, want 1", got)
	}
	for i := 0; i < 3; i++ { // repeated deploys must not leak slots
		if err := f.pf.Register(Function{Name: "fn", MemoryMB: 128,
			Timeout: time.Minute, Handler: noop}); err != nil {
			t.Fatal(err)
		}
		runDriver(t, f, func(p *sim.Proc) {
			var wg sim.WaitGroup
			for j := 0; j < 2; j++ {
				wg.Add(1)
				p.Spawn("par", func(ip *sim.Proc) {
					defer wg.Done()
					f.pf.Invoke(ip, "fn", nil)
				})
			}
			wg.Wait(p)
		})
	}
	if got := f.pf.VMCount(); got != 1 {
		t.Errorf("VM count after 3 redeploys = %d, want 1 (packing slots leaked)", got)
	}
}
