// Package rng provides small, fast, deterministic random number generators
// for the SLIDE reproduction.
//
// Every stochastic component in the repository (weight initialization, LSH
// function generation, dataset synthesis, sampling strategies) draws from an
// explicitly seeded generator so that experiments are reproducible run to
// run. The generator is a PCG-XSH-RR 64/32 stream: 64-bit LCG state advanced
// per draw, 32 output bits per step, with an odd stream increment so that
// independent components can derive non-overlapping streams from a shared
// base seed via Split.
//
// The normal fills (FillNormal32, FillNormFloat32) draw their polar pairs
// here and hand each batch of up to polarBatch pairs to vecmath's polar
// transform, whose AVX2 path is bit-identical to NormFloat64's scalar
// math.Log expression; rng depends on vecmath for that alone, and
// NormFloat64 stays scalar, the transform's reference.
package rng

import (
	"math"
	"slices"

	"repro/internal/vecmath"
)

const (
	pcgMult = 6364136223846793005
	pcgInc  = 1442695040888963407
)

// RNG is a PCG-XSH-RR 64/32 pseudo random number generator. The zero value
// is usable but all zero-seeded RNGs produce the same stream; prefer New.
// RNG is not safe for concurrent use; give each goroutine its own stream
// via Split.
type RNG struct {
	state uint64
	inc   uint64
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *RNG {
	return NewStream(seed, pcgInc)
}

// NewStream returns a generator seeded with seed on the stream selected by
// stream. Distinct stream values yield statistically independent sequences
// even for equal seeds.
func NewStream(seed, stream uint64) *RNG {
	r := &RNG{inc: stream<<1 | 1}
	r.state = r.inc + seed
	r.Uint32()
	return r
}

// Reseed resets r to the state it would have had if freshly constructed
// with NewStream(seed, stream) for r's current stream. The stream
// increment is preserved, so two generators on the same stream reseeded
// with equal seeds produce identical sequences regardless of how many
// draws either has made.
func (r *RNG) Reseed(seed uint64) {
	if r.inc == 0 {
		// Zero-value RNG: adopt the default stream so Reseed on an unused
		// zero generator matches New(seed).
		r.inc = pcgInc<<1 | 1
	}
	r.state = r.inc + seed
	r.Uint32()
}

// ReseedStream resets r to exactly the state of NewStream(seed, stream),
// replacing both the position and the stream increment. Use it to detach
// a generator from its construction-time stream (e.g. a per-worker
// stream) and pin it to a caller-chosen one.
func (r *RNG) ReseedStream(seed, stream uint64) {
	r.inc = stream<<1 | 1
	r.state = r.inc + seed
	r.Uint32()
}

// Split derives a new independent generator from r. The child's seed and
// stream are drawn from r, so successive Split calls return generators with
// distinct streams. Splitting advances r.
func (r *RNG) Split() *RNG {
	seed := uint64(r.Uint32())<<32 | uint64(r.Uint32())
	stream := uint64(r.Uint32())<<32 | uint64(r.Uint32())
	return NewStream(seed, stream)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) Uint32() uint32 {
	old := r.state
	r.state = old*pcgMult + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.Uint32())<<32 | uint64(r.Uint32())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Lemire's nearly-divisionless bounded rejection is used to avoid modulo
// bias while keeping the hot path to one multiplication.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn bound must be positive")
	}
	bound := uint32(n)
	m := uint64(r.Uint32()) * uint64(bound)
	low := uint32(m)
	if low < bound {
		threshold := -bound % bound
		for low < threshold {
			m = uint64(r.Uint32()) * uint64(bound)
			low = uint32(m)
		}
	}
	return int(m >> 32)
}

// Int63n returns a uniform integer in [0, n) for large n. It panics if
// n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n bound must be positive")
	}
	maxv := uint64(1)<<63 - 1
	limit := maxv - maxv%uint64(n)
	for {
		v := r.Uint64() >> 1
		if v < limit {
			return int64(v % uint64(n))
		}
	}
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(r.Uint32()>>8) * (1.0 / (1 << 24))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat32 returns a standard normal variate computed with the
// Marsaglia polar method.
func (r *RNG) NormFloat32() float32 {
	return float32(r.NormFloat64())
}

// NormFloat64 returns a standard normal variate computed with the
// Marsaglia polar method.
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// polarBatch is how many accepted polar pairs the normal fills draw before
// one batched transform.
const polarBatch = 64

// FillNormal32 fills dst with std·x for standard normal variates x drawn
// exactly as NormFloat64 draws them, but keeping both variates u·f and v·f
// of each accepted polar pair where NormFloat64 returns only u·f: half the
// draws per variate. An odd-length dst drops the last pair's second one.
func (r *RNG) FillNormal32(dst []float32, std float32) {
	var u, v, f [polarBatch]float64
	for len(dst) > 0 {
		n := min((len(dst)+1)/2, polarBatch)
		r.polarPairs(u[:n], v[:n], f[:n])
		vecmath.PolarFactors(f[:n], f[:n])
		for i := range n {
			dst[2*i] = std * float32(u[i]*f[i])
			if 2*i+1 == len(dst) {
				return
			}
			dst[2*i+1] = std * float32(v[i]*f[i])
		}
		dst = dst[2*n:]
	}
}

// FillNormFloat32 fills dst with std·NormFloat32() draws in order: the
// first variate of one accepted polar pair per value, the same values and
// draws as calling NormFloat32 len(dst) times.
func (r *RNG) FillNormFloat32(dst []float32, std float32) {
	var u, v, f [polarBatch]float64
	for len(dst) > 0 {
		n := min(len(dst), polarBatch)
		r.polarPairs(u[:n], v[:n], f[:n])
		vecmath.PolarFactors(f[:n], f[:n])
		for i := range n {
			dst[i] = std * float32(u[i]*f[i])
		}
		dst = dst[n:]
	}
}

// polarPairs sets u[i], v[i] and s[i] = u[i]² + v[i]² to the next len(u)
// accepted pairs, drawn and tested exactly as NormFloat64 draws them.
func (r *RNG) polarPairs(u, v, s []float64) {
	for i := range u {
		for {
			a := 2*r.Float64() - 1
			b := 2*r.Float64() - 1
			t := a*a + b*b
			if t >= 1 || t == 0 {
				continue
			}
			u[i], v[i], s[i] = a, b, t
			break
		}
	}
}

// Perm returns a uniformly random permutation of [0, n) using the
// Fisher-Yates shuffle.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap, per Fisher-Yates.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// SampleK draws k distinct integers from [0, n) uniformly at random in
// ascending order. It panics if k > n or either argument is negative.
// For small k relative to n it uses Floyd's algorithm; otherwise it shuffles.
func (r *RNG) SampleK(n, k int) []int {
	return r.SampleKInto(nil, n, k)
}

// SampleKInto is SampleK writing the sample into buf's storage, which it
// grows when short (to n for the shuffle, to k for Floyd's algorithm), so
// a caller that passes the last result back draws without allocating.
// Floyd's picks are kept sorted as they are drawn, with no set beside
// them: a pick already taken at step j is replaced by j, which is larger
// than every earlier pick. Each pick moves up to k earlier ones, so the
// cost grows as k² (k < n/4 here, the shuffle covering the rest): 0.1 ms
// for 1,024 of 150,000, where a set took 0.2 ms, but 34 ms for 30,000,
// where a set took 6 ms. The callers' samples are tens, and an
// evaluation subset, whose forward passes cost far more than its draw.
func (r *RNG) SampleKInto(buf []int, n, k int) []int {
	if k < 0 || n < 0 || k > n {
		panic("rng: SampleK requires 0 <= k <= n")
	}
	if k == 0 {
		return buf[:0]
	}
	if k*4 >= n {
		p := slices.Grow(buf[:0], n)[:n]
		for i := range p {
			p[i] = i
		}
		r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
		p = p[:k]
		slices.Sort(p)
		return p
	}
	out := slices.Grow(buf[:0], k)
	for j := n - k; j < n; j++ {
		t := r.Intn(j + 1)
		at, _ := slices.BinarySearch(out, t)
		if at < len(out) && out[at] == t {
			t, at = j, len(out)
		}
		out = append(out, 0)
		copy(out[at+1:], out[at:])
		out[at] = t
	}
	return out
}
