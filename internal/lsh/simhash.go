package lsh

import (
	"sync"

	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// simhash implements signed random projection (SRP) for cosine similarity
// (§3.2). Each hash function is a sparse random vector with entries in
// {+1, -1} on a random support of size density*Dim; the code is the sign
// bit of the projection. Using only additions/subtractions (no multiplies)
// and a sparse support reproduces the paper's two Simhash optimizations.
//
// Every function has the same support length, so the support/sign state
// is one function-transposed slab (vecmath.LaneSlab): eight functions share
// each 8-wide entry, function f's j-th support coordinate in lane f%8 with
// its sign in the entry's top bit. The dense paths run the signed-sum
// kernels over it (eight functions per step for a query, eight vectors per
// step for a block) — each lane adds its function's coordinates in
// ascending support order, so a code does not depend on the path or the
// machine's vector tier. The sparse path walks the CSR transpose
// (coordOff/coordFn) of the same state.
//
// The collision probability of two vectors x, y under one function is
// 1 - angle(x,y)/pi, monotone in cosine similarity.
type simhash struct {
	dim      int
	numFuncs int
	// lanes holds function f's support coordinates, ascending, with the
	// projection sign of each (set: the entry subtracts its coordinate).
	lanes *vecmath.LaneSlab
	// coordOff/coordFn are the CSR transpose used by the sparse path: for
	// input coordinate i, coordFn[coordOff[i]:coordOff[i+1]] packs
	// (function<<1)|neg entries in ascending function order. With nnz
	// non-zeros a sparse hash costs O(nnz * numFuncs * density) lookups,
	// matching the paper's cost analysis.
	coordOff []int32
	coordFn  []int32
	// accPool recycles the projection accumulator of every path (eight
	// values per function, one per vector of a block; the one-vector paths
	// use the first NumFuncs) so hashing allocates nothing.
	accPool sync.Pool
}

func newSimhash(p Params) (*simhash, error) {
	nf := p.K * p.L
	supLen := int(float64(p.Dim) * p.SimhashDensity)
	if supLen < 1 {
		supLen = 1
	}
	if supLen > p.Dim {
		supLen = p.Dim
	}
	s := &simhash{dim: p.Dim, numFuncs: nf}
	// Function-major draw (support, then its signs), the order every
	// recorded code depends on.
	sup := make([]int32, nf*supLen)
	neg := make([]bool, nf*supLen)
	r := rng.NewStream(p.Seed, 0x51)
	for f := 0; f < nf; f++ {
		for j, i := range r.SampleK(p.Dim, supLen) {
			sup[f*supLen+j] = int32(i)
			neg[f*supLen+j] = !r.Bernoulli(0.5)
		}
	}
	s.lanes = vecmath.NewLaneSlab(p.Dim, supLen, sup, neg)
	// CSR transpose, filled in (function, entry) order so the
	// per-coordinate entry order matches the draw order above.
	s.coordOff = make([]int32, p.Dim+1)
	for _, i := range sup {
		s.coordOff[i+1]++
	}
	for i := 0; i < p.Dim; i++ {
		s.coordOff[i+1] += s.coordOff[i]
	}
	s.coordFn = make([]int32, nf*supLen)
	next := make([]int32, p.Dim)
	copy(next, s.coordOff[:p.Dim])
	for k, i := range sup {
		e := int32(k/supLen) << 1
		if neg[k] {
			e |= 1
		}
		s.coordFn[next[i]] = e
		next[i]++
	}
	s.accPool.New = func() any {
		acc := make([]float32, 8*nf)
		return &acc
	}
	return s, nil
}

func (s *simhash) Name() string  { return "simhash" }
func (s *simhash) NumFuncs() int { return s.numFuncs }
func (s *simhash) CodeBits() int { return 1 }
func (s *simhash) Dim() int      { return s.dim }

func (s *simhash) HashDense(x []float32, out []uint32) {
	if len(x) != s.dim {
		panic("lsh: simhash dense input dimension mismatch")
	}
	ap := s.accPool.Get().(*[]float32)
	acc := (*ap)[:s.numFuncs]
	s.lanes.SignedSums(acc, x)
	for f, a := range acc {
		out[f] = signBit(a)
	}
	s.accPool.Put(ap)
}

// HashBlock runs the block signed-sum kernel and takes each sum's sign.
func (s *simhash) HashBlock(xt []float32, codes []uint32) {
	ap := s.accPool.Get().(*[]float32)
	acc := *ap
	s.lanes.SignedSumsBlock(acc, xt)
	for i, a := range acc {
		codes[i] = signBit(a)
	}
	s.accPool.Put(ap)
}

func (s *simhash) HashDenseRows(block []float32, rows int, out []uint32) {
	hashDenseRows(s, block, rows, out)
}

func (s *simhash) HashSparse(x sparse.Vector, out []uint32) {
	if x.Dim != s.dim {
		panic("lsh: simhash sparse input dimension mismatch")
	}
	ap := s.accPool.Get().(*[]float32)
	acc := (*ap)[:s.numFuncs]
	clear(acc)
	for j, i := range x.Idx {
		v := x.Val[j]
		for _, e := range s.coordFn[s.coordOff[i]:s.coordOff[i+1]] {
			if e&1 != 0 {
				acc[e>>1] -= v
			} else {
				acc[e>>1] += v
			}
		}
	}
	for f, a := range acc {
		out[f] = signBit(a)
	}
	s.accPool.Put(ap)
}

// signBit maps a projection value to the hash code: 1 for non-negative,
// 0 for negative. Exact zeros (e.g. zero inputs) land on 1 consistently in
// both dense and sparse paths.
func signBit(a float32) uint32 {
	if a >= 0 {
		return 1
	}
	return 0
}
