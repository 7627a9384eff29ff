package service

import (
	"errors"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// ErrShed is returned by RoundTripErr when the front end's admission queue
// is full: the request is rejected on arrival, after paying only the
// network propagation there and back. Shedding costs the server nothing —
// that asymmetry (cheap rejection vs expensive queued-then-abandoned work)
// is the whole point of admission control.
var ErrShed = errors.New("service: overloaded, request shed")

// ErrJailed is returned by RoundTripErr when the caller is currently
// banned by the front end's rate-window jail.
var ErrJailed = errors.New("service: caller jailed for rate abuse")

// Overloaded reports whether err is a server-side admission rejection
// (shed or jailed) — the class of errors a well-behaved client should back
// off from rather than hammer through.
func Overloaded(err error) bool {
	return errors.Is(err, ErrShed) || errors.Is(err, ErrJailed)
}

// AdmissionConfig parameterizes a front end's admission control. The zero
// value disables everything (the default; preserves prior behavior bit for
// bit).
type AdmissionConfig struct {
	// MaxQueue bounds how many requests may wait for a service slot; a
	// request arriving with the queue full is shed immediately. 0 disables
	// shedding (unbounded queue). Requires LimitConcurrency — without
	// finite slots there is no queue to bound.
	MaxQueue int
	// JailWindow / JailLimit: a caller issuing more than JailLimit
	// requests within one JailWindow is banned for one JailWindow. Both
	// must be set to enable the jail.
	JailWindow time.Duration
	JailLimit  int
}

// jailEntry is one caller's rate-window state.
type jailEntry struct {
	winStart time.Duration // start of the current counting window
	count    int           // requests seen in the window
	until    time.Duration // banned until (0 = not banned)
}

type admission struct {
	cfg  AdmissionConfig
	jail map[*netsim.Node]*jailEntry
}

// SetAdmission configures shedding and the per-caller jail. Call before
// traffic starts; a zero cfg turns admission control back off.
func (f *Frontend) SetAdmission(cfg AdmissionConfig) {
	if cfg == (AdmissionConfig{}) {
		f.adm = nil
		return
	}
	f.adm = &admission{cfg: cfg, jail: make(map[*netsim.Node]*jailEntry)}
}

// SetSlowdown scales this front end's sampled service times by factor
// (chaos hook: a degraded shard serves every request factor× slower).
// factor 1 restores normal speed.
func (f *Frontend) SetSlowdown(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	f.slow = factor
}

// admit runs the arrival-time admission checks (jail, then shed) at now.
// It returns nil when the request may proceed to the service queue.
func (f *Frontend) admit(p *sim.Proc, caller *netsim.Node) error {
	a := f.adm
	if a == nil {
		return nil
	}
	now := p.Now()
	if a.cfg.JailWindow > 0 && a.cfg.JailLimit > 0 {
		e := a.jail[caller]
		if e == nil {
			e = &jailEntry{winStart: now}
			a.jail[caller] = e
		}
		if e.until > now {
			f.stats.Jailed++
			return ErrJailed
		}
		if now-e.winStart >= a.cfg.JailWindow {
			e.winStart = now
			e.count = 0
		}
		e.count++
		if e.count > a.cfg.JailLimit {
			// Over the rate limit: ban the caller and reject this request
			// too. The window restarts when the ban lifts.
			e.until = now + a.cfg.JailWindow
			e.winStart = e.until
			e.count = 0
			f.stats.Jailed++
			return ErrJailed
		}
	}
	if a.cfg.MaxQueue > 0 && f.slots != nil &&
		f.slots.InUse() == f.slots.Capacity() && f.slots.Waiting() >= a.cfg.MaxQueue {
		f.stats.Shed++
		return ErrShed
	}
	return nil
}
