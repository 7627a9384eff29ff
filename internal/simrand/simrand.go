// Package simrand provides a deterministic random number generator and the
// latency-jitter distributions used by the simulated cloud.
//
// The simulator never consults math/rand's global state or the wall clock:
// every source of randomness is a seeded splitmix64 stream, so a whole
// experiment is reproducible bit-for-bit from its seed.
package simrand

import (
	"math"
	"time"
)

// RNG is a splitmix64 pseudo-random generator. It is small, fast, passes
// BigCrush, and — unlike math/rand.Source — is trivially forkable, which
// lets each simulated component own an independent deterministic stream.
type RNG struct {
	state uint64
}

// New returns a generator seeded with seed.
func New(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Fork derives an independent generator from this one. Streams produced by
// repeated Fork calls are decorrelated because each fork consumes one output
// of the parent and re-scrambles it.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns a standard normal variate (Box–Muller).
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 == 0 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// ExpFloat64 returns an exponential variate with mean 1.
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u)
	}
}

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes the first n elements using swap, like math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Dist is a distribution of durations, used to model per-operation latency.
type Dist interface {
	// Sample draws one duration using rng. Implementations must never
	// return a negative duration.
	Sample(rng *RNG) time.Duration
}

// Const is a degenerate distribution that always returns its value.
type Const time.Duration

// Sample implements Dist.
func (c Const) Sample(*RNG) time.Duration { return time.Duration(c) }

// Uniform is a uniform distribution over [Lo, Hi].
type Uniform struct {
	Lo, Hi time.Duration
}

// Sample implements Dist.
func (u Uniform) Sample(rng *RNG) time.Duration {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + time.Duration(rng.Float64()*float64(u.Hi-u.Lo))
}

// LogNormal models the right-skewed latency shape typical of networked
// services: most samples land near Median, with a tail controlled by Sigma
// (the standard deviation of the underlying normal; 0.25–0.5 is realistic
// for storage services).
type LogNormal struct {
	Median time.Duration
	Sigma  float64
}

// Sample implements Dist.
func (l LogNormal) Sample(rng *RNG) time.Duration {
	v := float64(l.Median) * math.Exp(l.Sigma*rng.NormFloat64())
	if v < 0 {
		return 0
	}
	return time.Duration(v)
}

// Exponential is an exponential distribution with the given mean, used for
// inter-arrival times in open-loop workloads.
type Exponential struct {
	Mean time.Duration
}

// Sample implements Dist.
func (e Exponential) Sample(rng *RNG) time.Duration {
	return time.Duration(float64(e.Mean) * rng.ExpFloat64())
}

// Shifted adds a fixed floor to another distribution, modelling a
// deterministic minimum service time plus stochastic queueing on top.
type Shifted struct {
	Floor time.Duration
	Tail  Dist
}

// Sample implements Dist.
func (s Shifted) Sample(rng *RNG) time.Duration {
	return s.Floor + s.Tail.Sample(rng)
}
