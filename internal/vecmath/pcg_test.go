package vecmath

import "math"

// pcg is the tests' generator: rng's PCG-XSH-RR 64/32 stream and the
// draws these tests use, copied rather than imported because rng calls
// this package's polar transform (an import of rng here would be a
// cycle). The copy draws what newPCG(seed) draws, so the test data did
// not change when the tests stopped importing rng.
type pcg struct {
	state, inc uint64
}

func newPCG(seed uint64) *pcg {
	const pcgInc = 1442695040888963407
	r := &pcg{inc: pcgInc<<1 | 1}
	r.state = r.inc + seed
	r.Uint32()
	return r
}

func (r *pcg) Uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return xorshifted>>rot | xorshifted<<((-rot)&31)
}

func (r *pcg) Float64() float64 {
	return float64((uint64(r.Uint32())<<32|uint64(r.Uint32()))>>11) * (1.0 / (1 << 53))
}

func (r *pcg) Intn(n int) int {
	bound := uint32(n)
	m := uint64(r.Uint32()) * uint64(bound)
	if low := uint32(m); low < bound {
		threshold := -bound % bound
		for low < threshold {
			m = uint64(r.Uint32()) * uint64(bound)
			low = uint32(m)
		}
	}
	return int(m >> 32)
}

func (r *pcg) Bernoulli(p float64) bool { return r.Float64() < p }

func (r *pcg) NormFloat32() float32 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return float32(u * math.Sqrt(-2*math.Log(s)/s))
	}
}

func (r *pcg) Perm(n int) []int {
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
