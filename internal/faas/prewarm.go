package faas

// Provisioned concurrency: pre-initialized containers that eliminate cold
// starts for a configured level of parallelism. AWS shipped this in late
// 2019 — after the paper — as a direct (if paid) response to the cold-start
// half of the paper's latency critique; the ablation value here is showing
// which part of the 303ms invoke it does and does not remove, and (in the
// faasscale scenario) what keeping a warm fleet costs per hour.

import (
	"fmt"
	"time"

	"repro/internal/pricing"
	"repro/internal/sim"
)

// ProvisionConcurrency pre-creates n warm containers for the named
// function, blocking the calling process while they initialize (in
// parallel). Provisioned containers are ordinary warm-pool members except
// that they never expire — and that they bill GB-seconds for as long as
// they stay allocated (Catalog.LambdaProvisionedGBSecond).
func (pf *Platform) ProvisionConcurrency(p *sim.Proc, name string, n int) error {
	fn, ok := pf.functions[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchFunction, name)
	}
	if n <= 0 {
		return fmt.Errorf("faas: provisioned concurrency must be positive")
	}
	var wg sim.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		p.Spawn("prewarm/"+name, func(wp *sim.Proc) {
			defer wg.Done()
			vm := pf.pickVM()
			vm.containers++
			wp.Sleep(pf.cfg.ColdStart.Sample(pf.rng))
			cont := &container{
				fn:          fn,
				vm:          vm,
				local:       make(map[string]any),
				lastUsed:    wp.Now(),
				provisioned: true,
			}
			pf.idle[fn.Name] = append(pf.idle[fn.Name], cont)
			pf.beginProvisioned(cont)
		})
	}
	wg.Wait(p)
	return nil
}

// RetireProvisioned removes up to n idle provisioned containers of the
// named function (newest first, matching the pool's LIFO reuse order) and
// returns how many it removed. Provisioned containers that are mid-
// invocation are not touched; callers that need to shed more retry after
// they are released.
func (pf *Platform) RetireProvisioned(name string, n int) int {
	pool := pf.idle[name]
	removed := 0
	for i := len(pool) - 1; i >= 0 && removed < n; i-- {
		if !pool[i].provisioned {
			continue
		}
		cont := pool[i]
		pool = append(pool[:i], pool[i+1:]...)
		pf.destroyContainer(cont)
		removed++
	}
	pf.idle[name] = pool
	return removed
}

// AccrueProvisioned settles provisioned-concurrency charges up to now.
// The platform calls it on every allocation change; experiments call it
// once before reading the meter so charges cover the full run.
func (pf *Platform) AccrueProvisioned(now sim.Time) {
	if pf.provisionedGB > 0 && now > pf.provisionedSince {
		secs := time.Duration(now - pf.provisionedSince).Seconds()
		pf.meter.ChargeCost("lambda.provisioned",
			pricing.USD(secs*pf.provisionedGB)*pf.catalog.LambdaProvisionedGBSecond)
	}
	pf.provisionedSince = now
}

// beginProvisioned starts billing an allocated provisioned container.
func (pf *Platform) beginProvisioned(cont *container) {
	now := pf.net.Kernel().Now()
	pf.AccrueProvisioned(now)
	pf.provisionedGB += float64(cont.fn.MemoryMB) / 1024
	pf.provisionedCount++
	cont.fn.stats.provisioned++
}

// endProvisioned stops billing a destroyed provisioned container.
func (pf *Platform) endProvisioned(cont *container) {
	now := pf.net.Kernel().Now()
	pf.AccrueProvisioned(now)
	pf.provisionedGB -= float64(cont.fn.MemoryMB) / 1024
	pf.provisionedCount--
	cont.fn.stats.provisioned--
}
