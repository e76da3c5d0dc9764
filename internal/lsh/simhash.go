package lsh

import (
	"math"
	"sync"

	"repro/internal/rng"
	"repro/internal/sparse"
)

// simhash implements signed random projection (SRP) for cosine similarity
// (§3.2). Each hash function is a sparse random vector with entries in
// {+1, -1} on a random support of size density*Dim; the code is the sign
// bit of the projection. Using only additions/subtractions (no multiplies)
// and a sparse support reproduces the paper's two Simhash optimizations.
//
// The support/sign state lives in flat slabs rather than per-function
// slices: every function has the same support length, so function f's
// coordinates occupy supIdx[f*supLen:(f+1)*supLen] and its signs are
// bit-packed into word-aligned runs of negW. The dense kernels walk these
// slabs linearly; the sparse path walks the CSR transpose (coordOff /
// coordFn) of the same state.
//
// The collision probability of two vectors x, y under one function is
// 1 - angle(x,y)/pi, monotone in cosine similarity.
type simhash struct {
	dim      int
	numFuncs int
	supLen   int
	// supIdx is the flat support slab: function f's support coordinates,
	// ascending, at supIdx[f*supLen:(f+1)*supLen].
	supIdx []int32
	// negW bit-packs the projection signs, one bit per support entry,
	// word-aligned per function: bit j of negW[f*signWords:] is set when
	// entry j subtracts its coordinate (-1 weight), clear when it adds.
	negW      []uint64
	signWords int
	// coordOff/coordFn are the CSR transpose used by the sparse path: for
	// input coordinate i, coordFn[coordOff[i]:coordOff[i+1]] packs
	// (function<<1)|neg entries in ascending function order. With nnz
	// non-zeros a sparse hash costs O(nnz * numFuncs * density) lookups,
	// matching the paper's cost analysis.
	coordOff []int32
	coordFn  []int32
	// accPool recycles the query-side projection accumulator of
	// HashSparse so the forward probe allocates nothing.
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
	s := &simhash{
		dim:       p.Dim,
		numFuncs:  nf,
		supLen:    supLen,
		supIdx:    make([]int32, nf*supLen),
		signWords: (supLen + 63) / 64,
	}
	s.negW = make([]uint64, nf*s.signWords)
	r := rng.NewStream(p.Seed, 0x51)
	for f := 0; f < nf; f++ {
		idx := r.SampleK(p.Dim, supLen)
		sup := s.supIdx[f*supLen : (f+1)*supLen]
		w := s.negW[f*s.signWords:]
		for j, i := range idx {
			sup[j] = int32(i)
			if !r.Bernoulli(0.5) {
				w[uint(j)>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
	// CSR transpose of the slabs, filled in (function, entry) order so the
	// per-coordinate entry order matches the construction order above.
	s.coordOff = make([]int32, p.Dim+1)
	for _, i := range s.supIdx {
		s.coordOff[i+1]++
	}
	for i := 0; i < p.Dim; i++ {
		s.coordOff[i+1] += s.coordOff[i]
	}
	s.coordFn = make([]int32, nf*supLen)
	next := make([]int32, p.Dim)
	copy(next, s.coordOff[:p.Dim])
	for f := 0; f < nf; f++ {
		w := s.negW[f*s.signWords:]
		for j := 0; j < supLen; j++ {
			i := s.supIdx[f*supLen+j]
			e := int32(f) << 1
			if w[uint(j)>>6]>>(uint(j)&63)&1 != 0 {
				e |= 1
			}
			s.coordFn[next[i]] = e
			next[i]++
		}
	}
	s.accPool.New = func() any {
		acc := make([]float32, nf)
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
	for f := 0; f < s.numFuncs; f++ {
		out[f] = signBit(s.project(x, f))
	}
}

// HashDenseRows batch-hashes rows contiguous dense vectors function-major:
// each function's support and sign words are loaded once and streamed over
// the whole row block. Per-row accumulation order matches HashDense, so
// the codes are bitwise identical to hashing row by row.
func (s *simhash) HashDenseRows(block []float32, rows int, out []uint32) {
	checkRowsArgs("simhash", s.dim, s.numFuncs, block, rows, out)
	nf, dim, sl := s.numFuncs, s.dim, s.supLen
	for f := 0; f < nf; f++ {
		sup := s.supIdx[f*sl : (f+1)*sl]
		w := s.negW[f*s.signWords:]
		for r := 0; r < rows; r++ {
			x := block[r*dim : (r+1)*dim : (r+1)*dim]
			var acc float32
			for j, i := range sup {
				neg := uint32(w[uint(j)>>6]>>(uint(j)&63)&1) << 31
				acc += math.Float32frombits(math.Float32bits(x[i]) ^ neg)
			}
			out[r*nf+f] = signBit(acc)
		}
	}
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

// project accumulates the signed projection of x under function f, walking
// the support slab linearly. Subtraction is a sign-bit flip plus add,
// which the IEEE rules make bit-identical to acc -= x[i].
func (s *simhash) project(x []float32, f int) float32 {
	sup := s.supIdx[f*s.supLen : (f+1)*s.supLen]
	w := s.negW[f*s.signWords:]
	var acc float32
	for j, i := range sup {
		neg := uint32(w[uint(j)>>6]>>(uint(j)&63)&1) << 31
		acc += math.Float32frombits(math.Float32bits(x[i]) ^ neg)
	}
	return acc
}
