package lsh

import (
	"math/bits"
	"sync"

	"repro/internal/sparse"
)

// doph is densified one-permutation minwise hashing (Shrivastava & Li
// 2014b; App. A). DOPH estimates Jaccard similarity of binary sets, so a
// real-valued input is first binarized by keeping its TopK largest
// components (the paper's thresholding heuristic with the priority-queue
// top-k). One universal hash plays the role of the single permutation: the
// hash range is split into K*L bins, each element lands in one bin, and a
// bin's code is derived from its minimum hash value. Empty bins borrow
// codes through the same densification probe as DWTA.
type doph struct {
	dim      int
	numFuncs int
	topK     int
	seed     uint64
	scratch  sync.Pool
}

// dophCodeBits is the width of the emitted codes: the low bits of the
// minimum hash in each bin. Collision probability is
// J + (1-J)/2^dophCodeBits, which preserves LSH monotonicity in the
// Jaccard similarity J.
const dophCodeBits = 8

// dophScratch is per-call state, pooled across goroutines: each bin's
// minimum hash and code (emptyBin while the bin is empty), and the dense
// path's non-zero gather.
type dophScratch struct {
	minVal []uint64
	code   []uint32
	idx    []int32
	val    []float32
}

func newDOPH(p Params) (*doph, error) {
	d := &doph{
		dim:      p.Dim,
		numFuncs: p.K * p.L,
		topK:     p.TopK,
		seed:     p.Seed,
	}
	nf := d.numFuncs
	d.scratch.New = func() any {
		return &dophScratch{
			minVal: make([]uint64, nf),
			code:   make([]uint32, nf),
		}
	}
	return d, nil
}

func (d *doph) Name() string  { return "doph" }
func (d *doph) NumFuncs() int { return d.numFuncs }
func (d *doph) CodeBits() int { return dophCodeBits }
func (d *doph) Dim() int      { return d.dim }

func (d *doph) HashDense(x []float32, out []uint32) {
	if len(x) != d.dim {
		panic("lsh: doph dense input dimension mismatch")
	}
	sc := d.scratch.Get().(*dophScratch)
	d.hashDenseInto(sc, x, out)
	d.scratch.Put(sc)
}

// HashDenseRows batch-hashes rows contiguous dense vectors, reusing one
// scratch (non-zero gather + bin state) across the whole block. Rows hash
// independently, so codes match HashDense bitwise.
func (d *doph) HashDenseRows(block []float32, rows int, out []uint32) {
	checkRowsArgs("doph", d.dim, d.numFuncs, block, rows, out)
	sc := d.scratch.Get().(*dophScratch)
	for r := 0; r < rows; r++ {
		d.hashDenseInto(sc, block[r*d.dim:(r+1)*d.dim], out[r*d.numFuncs:(r+1)*d.numFuncs])
	}
	d.scratch.Put(sc)
}

// hashDenseInto binarizes one dense row over its non-zero support and
// hashes the resulting set, all within the caller's scratch.
func (d *doph) hashDenseInto(sc *dophScratch, x []float32, out []uint32) {
	idx := sc.idx[:0]
	val := sc.val[:0]
	for i, v := range x {
		if v != 0 {
			idx = append(idx, int32(i))
			val = append(val, v)
		}
	}
	sc.idx, sc.val = idx, val
	if len(idx) <= d.topK {
		d.hashSet(sc, idx, out)
	} else {
		d.hashSet(sc, sparse.TopKSparse(idx, val, d.topK), out)
	}
}

func (d *doph) HashSparse(x sparse.Vector, out []uint32) {
	if x.Dim != d.dim {
		panic("lsh: doph sparse input dimension mismatch")
	}
	sc := d.scratch.Get().(*dophScratch)
	if x.NNZ() <= d.topK {
		d.hashSet(sc, x.Idx, out)
	} else {
		d.hashSet(sc, sparse.TopKSparse(x.Idx, x.Val, d.topK), out)
	}
	d.scratch.Put(sc)
}

// hashSet computes the DOPH codes of a binary set given by element ids.
func (d *doph) hashSet(sc *dophScratch, set []int32, out []uint32) {
	for i := range sc.code {
		sc.code[i] = emptyBin
	}
	nf := uint64(d.numFuncs)
	for _, e := range set {
		h := mix64(d.seed + uint64(uint32(e))*0x9e3779b97f4a7c15)
		bin, _ := bits.Mul64(h, nf) // fixed-point h*nf/2^64: uniform bin in [0, nf)
		if sc.code[bin] == emptyBin || h < sc.minVal[bin] {
			sc.minVal[bin] = h
			sc.code[bin] = uint32(mix64(h)) & (1<<dophCodeBits - 1)
		}
	}
	for f := 0; f < d.numFuncs; f++ {
		if sc.code[f] != emptyBin {
			out[f] = sc.code[f]
			continue
		}
		out[f] = densify(d.seed, f, d.numFuncs, sc.code)
	}
}
