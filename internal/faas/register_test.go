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

// TestRegisterTakenNameKeepsFirstDeployment: a name is deployed once.
// Registering it again is an error and leaves the first deployment serving
// from its warm container, container-local state and counters intact.
func TestRegisterTakenNameKeepsFirstDeployment(t *testing.T) {
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

	v2 := Function{Name: "fn", MemoryMB: 256, Timeout: time.Minute,
		Handler: func(*Ctx, []byte) ([]byte, error) {
			t.Error("the rejected deployment's handler ran")
			return []byte("v2"), nil
		}}
	if err := f.pf.Register(v2); err == nil {
		t.Fatal("Register of a taken name succeeded")
	}
	if got := f.pf.WarmIdle("fn"); got != 1 {
		t.Fatalf("warm idle after the rejected Register = %d, want 1", got)
	}
	runDriver(t, f, func(p *sim.Proc) {
		resp, rep, err := f.pf.Invoke(p, "fn", nil)
		if err != nil {
			t.Error(err)
		}
		if string(resp) != "v1" {
			t.Errorf("response = %q, want v1", resp)
		}
		if rep.ColdStart {
			t.Error("the first deployment lost its warm container")
		}
	})
	if st, _ := f.pf.Stats("fn"); st.Invocations != 4 || st.ColdStarts != 1 {
		t.Errorf("stats = %+v, want 4 invocations and 1 cold start", st)
	}
}
