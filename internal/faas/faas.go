// Package faas simulates an AWS-Lambda-style Functions-as-a-Service
// platform, reproducing the restrictions §3 of the paper documents:
//
//   - Limited lifetimes: each invocation is capped (15 minutes); state
//     survives only in best-effort warm containers.
//   - I/O bottlenecks: functions of one user are packed onto shared VMs,
//     so per-function bandwidth shrinks as concurrency grows (the VM NIC
//     is a netsim fair-shared link).
//   - No network addressability: handlers get no inbound endpoint; all
//     communication must go through storage services.
//   - Memory-proportional CPU: a 640MB function gets ~36% of a core.
//   - Billing: $0.20/M requests plus GB-seconds rounded up to 100ms.
//
// Invocation overhead, cold/warm start times, and the SQS event-source
// dispatch delay are calibration constants documented in EXPERIMENTS.md.
package faas

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/netsim"
	"repro/internal/pricing"
	"repro/internal/sim"
	"repro/internal/simrand"
	"repro/internal/statecache"
)

// Errors returned by the platform.
var (
	ErrNoSuchFunction  = errors.New("faas: no such function")
	ErrPayloadTooLarge = errors.New("faas: payload exceeds 6MB limit")
	ErrTimeout         = errors.New("faas: function timed out")
	ErrBadTimeout      = errors.New("faas: timeout negative or over the 15 minute maximum")
)

// PayloadLimit is the maximum invocation payload size.
const PayloadLimit = 6 * 1024 * 1024

// Handler is user function code. It runs inside a simulated container; all
// blocking work must go through ctx (compute) or the simulated services
// (I/O), using ctx.Node() as the network caller so that traffic shares the
// host VM's NIC with co-located functions.
//
// The payload is valid only until the handler returns: the caller may
// reuse its buffer for the next invocation (an event-source poller does).
// A handler that keeps any of it must copy it. A handler may overwrite its
// payload, and SQSBodies does, so a caller must not rely on the payload's
// contents after Invoke. ctx, too, is valid only until the handler returns.
type Handler func(ctx *Ctx, payload []byte) ([]byte, error)

// Function is a registered function.
type Function struct {
	Name     string
	MemoryMB int
	Timeout  time.Duration
	Handler  Handler

	// stats is platform-managed (see stats.go).
	stats FunctionStats
}

// MaxTimeout caps per-invocation lifetime (15 minutes).
const MaxTimeout = 15 * time.Minute

// The platform's calibration.
const (
	// fullCoreMemoryMB is the memory size at which a function receives a
	// whole vCPU (1,769 MB on Lambda).
	fullCoreMemoryMB = 1769

	// fullCoreComputeMBps is the single-core data-crunching rate,
	// calibrated so a 640MB function runs the optimizer over 100MB in the
	// paper's 0.59 s.
	fullCoreComputeMBps = 468.6

	// accountConcurrency caps simultaneous executions.
	accountConcurrency = 1000

	// rack places the platform's VMs and control plane.
	rack = 1
)

var (
	// invokeOverhead is the request routing/queueing delay per
	// invocation, calibrated so a warm no-op invoke with a 1KB argument
	// averages Table 1's 303 ms.
	invokeOverhead simrand.Dist = simrand.LogNormal{Median: 294 * time.Millisecond, Sigma: 0.08}

	// warmStart is the dispatch delay into an existing container.
	warmStart = simrand.Uniform{Lo: 3 * time.Millisecond, Hi: 7 * time.Millisecond}

	// esmDispatchDelay is the event-source-mapping pipeline delay
	// between an SQS poll returning and the function invocation
	// starting, calibrated so SQS-triggered serving lands at the paper's
	// 447 ms per batch.
	esmDispatchDelay = simrand.Uniform{Lo: 115 * time.Millisecond, Hi: 155 * time.Millisecond}
)

// Config holds the platform settings that experiments vary.
type Config struct {
	// ColdStart is the sandbox provisioning delay when no warm container
	// exists. The Firecracker ablation (footnote 5) replaces it with a
	// 125 ms microVM boot.
	ColdStart simrand.Dist

	// VMNICBps is the capacity of each function-hosting VM's NIC
	// (538 Mbps, the per-function bandwidth Wang et al. measured for a
	// solo function).
	VMNICBps netsim.Bps

	// ContainersPerVM is how many containers the platform packs onto
	// one VM before allocating another (the paper: "AWS appears to
	// attempt to pack Lambda functions from the same user together on
	// a single VM").
	ContainersPerVM int

	// WarmTTL is how long an idle container stays reusable.
	WarmTTL time.Duration
}

// DefaultConfig returns the calibrated configuration.
func DefaultConfig() Config {
	return Config{
		ColdStart:       simrand.LogNormal{Median: 650 * time.Millisecond, Sigma: 0.25},
		VMNICBps:        netsim.Mbps(538),
		ContainersPerVM: 20,
		WarmTTL:         10 * time.Minute,
	}
}

// hostVM is one function-hosting virtual machine.
type hostVM struct {
	node       *netsim.Node
	containers int
	// cache is the VM-colocated state-cache replica, present while the
	// platform has an attached cluster. Handlers reach it via Ctx.Cache;
	// reclaimVM detaches (and thereby drains) it before recycling the node.
	cache *statecache.Cache
	// doomed marks a crashed VM (see CrashVMs): containers mid-invocation
	// finish but are destroyed instead of re-pooled, so the VM drains and
	// reclaims. Cleared when pickVM recycles the node.
	doomed bool
}

// container is one function sandbox.
type container struct {
	fn       *Function
	vm       *hostVM
	local    map[string]any
	lastUsed sim.Time
	// provisioned containers never expire from the warm pool.
	provisioned bool
	// reap is the container's eager-expiry timer, armed while it sits in
	// the warm pool (see scheduleReap). Allocated once per container and
	// re-armed on every release.
	reap *sim.Timer
	// ctx is the handler context, reset by every invocation: a container
	// serves one invocation at a time (see Ctx).
	ctx Ctx
}

// Platform is the FaaS control plane plus its fleet of hosting VMs.
type Platform struct {
	name    string
	net     *netsim.Network
	rng     *simrand.RNG
	cfg     Config
	catalog *pricing.Catalog
	meter   *pricing.Meter
	// overhead is invokeOverhead; a test may swap in another routing
	// delay before the first invocation.
	overhead simrand.Dist

	ctlNode     *netsim.Node // control plane / event-source pollers
	functions   map[string]*Function
	vms         []*hostVM               // VMs hosting at least one container
	freeVMs     []*hostVM               // emptied VMs whose nodes await reuse
	idle        map[string][]*container // warm pool per function, LIFO
	concurrency *sim.Resource
	nextVM      int
	// region pins the fleet: every hosting VM's node is created in the
	// region the platform itself was created in, whatever the network's
	// build region is when a cold start happens to allocate it.
	region int
	// slow maps a hosting VM's node to its compute-slowdown factor (the
	// chaos engine's straggler knob); absent means full speed.
	slow map[*netsim.Node]float64

	// Provisioned-concurrency billing accrual (see prewarm.go).
	provisionedGB    float64  // GB currently allocated as provisioned
	provisionedCount int      // provisioned containers allocated (idle or busy)
	provisionedSince sim.Time // start of the unaccrued billing span

	// cache, when attached, colocates a state-cache replica with every
	// hosting VM (the paper's §4 fluid-state platform).
	cache *statecache.Cluster

	// trips recycles invocation step state, and the invocation's steps
	// (see Invoke) are bound once here, so an invocation's prologue
	// allocates nothing.
	trips                                       []*invokeTrip
	startStep, acquireStep, grantStep, shipStep func(*sim.Proc)
}

// invokeTrip is one invocation's state from its start to its handler,
// reached through the caller's Trip.Ref while its chain of steps runs.
type invokeTrip struct {
	fn      *Function
	payload []byte
	cont    *container
	cold    bool
	// held is set once the account-concurrency slot is held and the
	// execution counted, so an unwinding body gives both back.
	held bool
}

// New creates a platform.
func New(name string, net *netsim.Network, rng *simrand.RNG, cfg Config,
	catalog *pricing.Catalog, meter *pricing.Meter) *Platform {
	pf := &Platform{
		name:        name,
		net:         net,
		rng:         rng,
		cfg:         cfg,
		catalog:     catalog,
		meter:       meter,
		overhead:    invokeOverhead,
		ctlNode:     net.NewNode(name+"/ctl", rack, netsim.Gbps(100)),
		functions:   make(map[string]*Function),
		idle:        make(map[string][]*container),
		concurrency: sim.NewResource(accountConcurrency),
		region:      net.BuildRegion(),
	}
	pf.bindSteps()
	return pf
}

// Register adds a function under a name not yet registered. Memory must be
// positive and the timeout between zero and MaxTimeout; a zero timeout
// defaults to the maximum.
func (pf *Platform) Register(fn Function) error {
	if fn.Name == "" || fn.Handler == nil || fn.MemoryMB <= 0 {
		return fmt.Errorf("faas: invalid function %q", fn.Name)
	}
	if _, taken := pf.functions[fn.Name]; taken {
		return fmt.Errorf("faas: function %q already registered", fn.Name)
	}
	if fn.Timeout == 0 {
		fn.Timeout = MaxTimeout
	}
	if fn.Timeout < 0 || fn.Timeout > MaxTimeout {
		return ErrBadTimeout
	}
	pf.functions[fn.Name] = &fn
	return nil
}

// WarmIdle reports how many containers (provisioned or not) are idle-warm
// for the named function. The eager reaper evicts expired containers the
// moment their TTL passes, so this count never includes dead capacity.
func (pf *Platform) WarmIdle(name string) int { return len(pf.idle[name]) }

// VMCount reports how many hosting VMs are active (hosting at least one
// container); emptied VMs are reclaimed and their nodes recycled.
func (pf *Platform) VMCount() int { return len(pf.vms) }

// Report describes one completed invocation.
type Report struct {
	Duration       time.Duration // handler execution time
	BilledDuration time.Duration // rounded up to 100ms, capped at timeout
	ColdStart      bool
	VMNode         *netsim.Node
}

// Invoke synchronously executes the named function, blocking the caller
// through routing overhead, container acquisition, execution, and response.
// It returns the handler's response, an execution report, and an error
// (handler error, ErrTimeout, or a platform error). The handler may read
// payload only until it returns, so the caller may reuse the buffer once
// Invoke does. The handler may also overwrite it, so a caller that sends
// the same bytes again must write them again. The handler's Ctx is the
// container's own, reset for each invocation.
//
// Everything before the handler is platform-side work, so it runs as a
// chain of steps (see sim.Proc.WakeAfter) at the events where the caller
// would have resumed: acquire after the routing overhead, grant once the
// concurrency slot is held, ship after the warm or cold start (see
// bindSteps). The caller resumes once, when its handler starts.
func (pf *Platform) Invoke(p *sim.Proc, name string, payload []byte) ([]byte, Report, error) {
	return pf.invoke(p, -1, name, payload)
}

// invoke is Invoke after a delay (none when negative) that the caller
// waits out as the invocation's first wake-up: the event-source mapping's
// pipeline delay.
func (pf *Platform) invoke(p *sim.Proc, delay time.Duration, name string, payload []byte) ([]byte, Report, error) {
	fn, ok := pf.functions[name]
	if !ok || len(payload) > PayloadLimit {
		if delay >= 0 {
			p.Sleep(delay)
		}
		if !ok {
			return nil, Report{}, fmt.Errorf("%w: %q", ErrNoSuchFunction, name)
		}
		return nil, Report{}, ErrPayloadTooLarge
	}
	t := pf.trip()
	t.fn, t.payload = fn, payload
	defer pf.endTrip(t)
	p.Trip = sim.Trip{Ref: t}
	if delay < 0 {
		pf.startStep(p)
	} else {
		p.WakeAfter(delay, pf.startStep)
	}
	p.Park()
	p.Trip = sim.Trip{}
	fn, cont, cold := t.fn, t.cont, t.cold

	start := p.Now()
	ctx := &cont.ctx
	*ctx = Ctx{proc: p, pf: pf, fn: fn, cont: cont, deadline: start + fn.Timeout}
	resp, err := fn.Handler(ctx, payload)
	dur := p.Now() - start

	timedOut := dur > fn.Timeout
	billed := dur
	if timedOut {
		billed = fn.Timeout
	}
	pf.meter.ChargeCost("lambda.gbsec", pf.catalog.LambdaCompute(fn.MemoryMB, billed))

	rep := Report{
		Duration:       dur,
		BilledDuration: pricing.LambdaDuration(billed),
		ColdStart:      cold,
		VMNode:         cont.vm.node,
	}
	fn.stats.Invocations++
	if cold {
		fn.stats.ColdStarts++
	}
	if timedOut {
		// The sandbox is killed; its state is not reusable.
		pf.destroyContainer(cont)
		return nil, rep, fmt.Errorf("%w after %v (limit %v)", ErrTimeout, dur, fn.Timeout)
	}
	pf.releaseContainer(p, cont)
	return resp, rep, err
}

// trip returns a cleared invocation record, recycling one when it can.
func (pf *Platform) trip() *invokeTrip {
	if n := len(pf.trips); n > 0 {
		t := pf.trips[n-1]
		pf.trips = pf.trips[:n-1]
		return t
	}
	return &invokeTrip{}
}

// endTrip ends an invocation, returned or unwound: once the slot is held,
// the execution ends and the slot goes back, in that order. A body that a
// closed kernel unwinds before its grant step ran holds neither.
func (pf *Platform) endTrip(t *invokeTrip) {
	if t.held {
		t.fn.stats.endExecution()
		pf.concurrency.Release()
	}
	*t = invokeTrip{}
	pf.trips = append(pf.trips, t)
}

// bindSteps builds the invocation's steps once per platform. They are
// closures over pf, not method values, which would add a wrapper frame on
// the caller's stack when Park runs them. Each step's schedule calls and
// draws are the ones a blocking invocation made at the same event, in the
// same order, so the event order is unchanged.
func (pf *Platform) bindSteps() {
	// start routes the request: it is billed, and the routing overhead is
	// drawn.
	pf.startStep = func(p *sim.Proc) {
		pf.meter.Charge("lambda.request", 1, pf.catalog.LambdaPerRequest)
		p.WakeAfter(pf.overhead.Sample(pf.rng), pf.acquireStep)
	}
	// acquire ends the routing overhead: a concurrency slot now, or a
	// place in the slot queue whose grant runs grant.
	pf.acquireStep = func(p *sim.Proc) {
		if pf.concurrency.AcquireStep(p, pf.grantStep) {
			pf.place(p)
		}
	}
	pf.grantStep = func(p *sim.Proc) { pf.place(p) }
	// ship ends the container start and sends the payload to the hosting
	// VM through its shared NIC; the transfer's completion resumes the
	// caller.
	pf.shipStep = func(p *sim.Proc) {
		t := p.Trip.Ref.(*invokeTrip)
		if pf.net.Fabric().TransferStep(p, int64(len(t.payload)), nil, t.cont.vm.node.NIC()) {
			panic("faas: a payload transfer completed without a wait")
		}
	}
}

// place runs with the concurrency slot held: it counts the execution and
// takes a warm container if one is idle, otherwise cold starts a new one on
// a packed VM. The start's wake-up runs ship, or resumes the caller when
// there is no payload to send.
func (pf *Platform) place(p *sim.Proc) {
	t := p.Trip.Ref.(*invokeTrip)
	t.held = true
	fn := t.fn
	fn.stats.beginExecution()
	var d time.Duration
	if pool := pf.idle[fn.Name]; len(pool) > 0 {
		t.cont = pool[len(pool)-1]
		pf.idle[fn.Name] = pool[:len(pool)-1]
		if t.cont.reap != nil {
			t.cont.reap.Stop() // checked out; release re-arms
		}
		d = warmStart.Sample(pf.rng)
	} else {
		vm := pf.pickVM()
		vm.containers++
		t.cont = &container{fn: fn, vm: vm, local: make(map[string]any)}
		t.cold = true
		d = pf.cfg.ColdStart.Sample(pf.rng)
	}
	if len(t.payload) > 0 {
		p.WakeAfter(d, pf.shipStep)
	} else {
		p.WakeAfter(d, nil)
	}
}

// pickVM returns the first VM with packing room, reusing a reclaimed VM's
// node before allocating a fresh one, so all containers packing onto a new
// VM only happens when the active fleet is full — the packing behaviour
// behind the bandwidth collapse.
func (pf *Platform) pickVM() *hostVM {
	for _, vm := range pf.vms {
		if vm.containers < pf.cfg.ContainersPerVM {
			return vm
		}
	}
	if n := len(pf.freeVMs); n > 0 {
		vm := pf.freeVMs[n-1]
		pf.freeVMs = pf.freeVMs[:n-1]
		vm.doomed = false
		pf.vms = append(pf.vms, vm)
		pf.attachCache(vm)
		return vm
	}
	pf.nextVM++
	prev := pf.net.SetBuildRegion(pf.region)
	vm := &hostVM{
		node: pf.net.NewNode(fmt.Sprintf("%s-vm-%d", pf.name, pf.nextVM), rack, pf.cfg.VMNICBps),
	}
	pf.net.SetBuildRegion(prev)
	pf.vms = append(pf.vms, vm)
	pf.attachCache(vm)
	return vm
}

// VMNodes returns the active hosting VMs' network nodes in fleet order
// (the chaos engine's handle for per-node slowdown injection).
func (pf *Platform) VMNodes() []*netsim.Node {
	nodes := make([]*netsim.Node, len(pf.vms))
	for i, vm := range pf.vms {
		nodes[i] = vm.node
	}
	return nodes
}

// CrashVMs fails the first n active hosting VMs — a correlated
// crash-reclaim storm. Victims' idle containers are destroyed on the spot
// (stopping their provisioned-concurrency billing; each emptied VM funnels
// through reclaimVM, which detaches and drains its cache replica before
// recycling the node). Containers mid-invocation finish their current
// handler but are destroyed instead of re-pooled. The autoscaler's next
// reconcile tick observes the lost provisioned capacity and rebuilds it.
// Returns how many VMs were crashed.
func (pf *Platform) CrashVMs(n int) int {
	if n > len(pf.vms) {
		n = len(pf.vms)
	}
	if n <= 0 {
		return 0
	}
	for _, vm := range pf.vms[:n] {
		vm.doomed = true
	}
	// Sweep doomed containers out of the warm pools in sorted function
	// order: destruction emits billing events, and map iteration order
	// must not leak into the simulation.
	names := make([]string, 0, len(pf.idle))
	for name := range pf.idle {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pool := pf.idle[name]
		w := 0
		for _, cont := range pool {
			if cont.vm.doomed {
				pf.destroyContainer(cont)
				continue
			}
			pool[w] = cont
			w++
		}
		pf.idle[name] = pool[:w]
	}
	return n
}

// SetComputeSlowdown scales the named VM node's compute rate down by
// factor (a straggler runs factor× slower through Ctx.Compute; network
// I/O already degrades through the fabric). Factor 1 restores full speed.
func (pf *Platform) SetComputeSlowdown(node *netsim.Node, factor float64) {
	if factor <= 0 {
		panic("faas: slowdown factor must be positive")
	}
	if factor == 1 {
		delete(pf.slow, node)
		return
	}
	if pf.slow == nil {
		pf.slow = make(map[*netsim.Node]float64)
	}
	pf.slow[node] = factor
}

// AttachStateCache colocates one replica of the given cluster with every
// hosting VM: handlers reach the VM's replica through Ctx.Cache, and
// reclaiming an emptied VM drains the replica's unflushed deltas into the
// cluster's backing store before the node is recycled. A platform takes one
// cluster, once, before any VM is active; a second or later call panics.
func (pf *Platform) AttachStateCache(cl *statecache.Cluster) {
	if pf.cache != nil || len(pf.vms) > 0 {
		panic("faas: " + pf.name + ": a state cache attaches once, before the first VM")
	}
	pf.cache = cl
}

// attachCache binds a state-cache replica to an activating VM.
func (pf *Platform) attachCache(vm *hostVM) {
	if pf.cache != nil {
		vm.cache = pf.cache.Attach(vm.node)
	}
}

func (pf *Platform) releaseContainer(p *sim.Proc, cont *container) {
	if cont.vm.doomed {
		// The hosting VM crashed under this invocation: the container must
		// not be pooled.
		pf.destroyContainer(cont)
		return
	}
	cont.lastUsed = p.Now()
	pf.idle[cont.fn.Name] = append(pf.idle[cont.fn.Name], cont)
	pf.scheduleReap(cont)
}

// scheduleReap arms a pooled container's expiry timer. The reaper is the
// warm pool's only expiry: a container leaves the pool the moment its TTL
// passes, so WarmIdle stays truthful, the emptied VM is reclaimed
// promptly, and place takes any pooled container as warm. The timer is a
// cancellable handle — place and destroyContainer stop it — so a reused
// container's stale expiry is removed from the kernel queue outright
// rather than firing as a no-op. It fires one nanosecond past the TTL, so
// a container idle for exactly WarmTTL is still reused.
func (pf *Platform) scheduleReap(cont *container) {
	if cont.provisioned {
		return // never expires
	}
	if cont.reap == nil {
		cont.reap = pf.net.Kernel().NewTimer(func() { pf.reap(cont) })
	}
	cont.reap.ResetAt(cont.lastUsed + pf.cfg.WarmTTL + time.Nanosecond)
}

// reap evicts an expired container from the warm pool. It only ever fires
// while the container is pooled: checkout and destruction stop the timer.
func (pf *Platform) reap(cont *container) {
	pool := pf.idle[cont.fn.Name]
	for i, cand := range pool {
		if cand == cont {
			pf.idle[cont.fn.Name] = append(pool[:i], pool[i+1:]...)
			pf.destroyContainer(cont)
			return
		}
	}
	panic("faas: reap timer fired for an unpooled container")
}

func (pf *Platform) destroyContainer(cont *container) {
	if cont.reap != nil {
		cont.reap.Stop()
	}
	if cont.provisioned {
		pf.endProvisioned(cont)
	}
	pf.removeFromVM(cont)
}

func (pf *Platform) removeFromVM(cont *container) {
	cont.vm.containers--
	if cont.vm.containers == 0 {
		pf.reclaimVM(cont.vm)
	}
}

// reclaimVM removes an emptied VM from the active fleet. Its node (and NIC
// link) parks on a free list and is handed back by pickVM before any new
// node is created, so long runs cycle a bounded set of netsim nodes instead
// of leaking one per cold-start wave.
//
// A VM-colocated cache replica is detached first: Detach drains any deltas
// the replica absorbed but has not yet write-behind-flushed, so recycling
// the node (which hands a fresh, empty replica to the VM's next tenant)
// never silently drops state.
func (pf *Platform) reclaimVM(vm *hostVM) {
	if vm.cache != nil {
		vm.cache.Detach()
		vm.cache = nil
	}
	for i, cand := range pf.vms {
		if cand == vm {
			pf.vms = append(pf.vms[:i], pf.vms[i+1:]...)
			pf.freeVMs = append(pf.freeVMs, vm)
			return
		}
	}
}

// Ctx is the execution context passed to handlers. It is valid only during
// the handler call it was passed to: each container keeps one Ctx and
// rewrites it for its next invocation, so a Ctx kept past its handler's
// return reads a later invocation's state.
type Ctx struct {
	proc     *sim.Proc
	pf       *Platform
	fn       *Function
	cont     *container
	deadline sim.Time
}

// Proc returns the simulated process the handler runs on.
func (c *Ctx) Proc() *sim.Proc { return c.proc }

// Node returns the hosting VM's network node. All of the handler's service
// I/O must use it as the caller so traffic contends on the shared NIC.
func (c *Ctx) Node() *netsim.Node { return c.cont.vm.node }

// Remaining returns the time left before the invocation's deadline.
func (c *Ctx) Remaining() time.Duration {
	d := c.deadline - c.proc.Now()
	if d < 0 {
		return 0
	}
	return d
}

// Local returns container-local scratch state. It survives across warm
// invocations of the same container — and only those; the platform gives no
// way to ensure reuse, exactly the limitation the paper highlights.
func (c *Ctx) Local() map[string]any { return c.cont.local }

// Cache returns the state-cache replica colocated with the hosting VM (the
// §4 fluid-state surface: local-memory reads, CRDT writes, gossip
// convergence), or nil when the platform has no attached cluster.
func (c *Ctx) Cache() *statecache.Cache { return c.cont.vm.cache }

// ComputeShare returns the fraction of a core this function receives
// (memory-proportional, capped at one core for single-threaded handlers).
func (c *Ctx) ComputeShare() float64 {
	share := float64(c.fn.MemoryMB) / fullCoreMemoryMB
	if share > 1 {
		share = 1
	}
	return share
}

// Compute blocks for the time this function takes to crunch through `bytes`
// of data at its memory-scaled CPU share (divided by any chaos-injected
// slowdown on the hosting VM).
func (c *Ctx) Compute(bytes int64) {
	rate := fullCoreComputeMBps * 1e6 * c.ComputeShare()
	if f := c.pf.slow[c.cont.vm.node]; f > 0 {
		rate /= f
	}
	c.proc.Sleep(time.Duration(float64(bytes) / rate * float64(time.Second)))
}
