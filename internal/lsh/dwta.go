package lsh

import (
	"sync"

	"repro/internal/rng"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// permSet is DWTA's permutation machinery (App. A).
// Following the paper's memory optimization, only ceil(K*L*m/d) random
// permutations are generated instead of K*L: each permutation of [0, dim)
// is split into floor(dim/m) bins of m consecutive permuted coordinates and
// every bin supplies one hash function. Function f is bin f%binsPerPerm of
// permutation f/binsPerPerm; its code is the within-bin position (in
// [0, m)) of the maximum input coordinate mapped into the bin.
//
// The dense path reads each function's bin from a function-transposed slab
// (vecmath.LaneSlab: function f's j-th bin coordinate in lane f%8 of
// group f/8), which the DWTA argmax kernel walks eight functions at a time;
// coordinates in a permutation's unused tail are not stored. The sparse
// path maps coordinates to bins through the inverse permutations, one
// flat slab (permutation p at [p*dim:(p+1)*dim]).
type permSet struct {
	dim         int
	numFuncs    int
	binSize     int
	binsPerPerm int
	numPerms    int
	// bins holds function f's bin: its permuted coordinates in position
	// order.
	bins *vecmath.LaneSlab
	// invPerm[p*dim+coord] is the permuted position of coordinate coord.
	invPerm []int32
}

func newPermSet(p Params) *permSet {
	m := p.BinSize
	if m > p.Dim {
		m = p.Dim
	}
	nf := p.K * p.L
	bpp := p.Dim / m
	if bpp < 1 {
		bpp = 1
	}
	numPerms := (nf + bpp - 1) / bpp
	ps := &permSet{
		dim:         p.Dim,
		numFuncs:    nf,
		binSize:     m,
		binsPerPerm: bpp,
		numPerms:    numPerms,
		invPerm:     make([]int32, numPerms*p.Dim),
	}
	// Function f's bin is fwd[(f%bpp)*m:][:m] of permutation f/bpp, so the
	// function-major bin list is each permutation's used prefix in turn.
	bins := make([]int32, 0, numPerms*bpp*m)
	fwd := make([]int32, p.Dim)
	r := rng.NewStream(p.Seed, 0x57a)
	for pi := 0; pi < numPerms; pi++ {
		inv := ps.invPerm[pi*p.Dim : (pi+1)*p.Dim]
		for i := range fwd {
			fwd[i] = int32(i)
		}
		r.Shuffle(len(fwd), func(a, b int) { fwd[a], fwd[b] = fwd[b], fwd[a] })
		for pos, coord := range fwd {
			inv[coord] = int32(pos)
		}
		bins = append(bins, fwd[:bpp*m]...)
	}
	ps.bins = vecmath.NewLaneSlab(p.Dim, m, bins[:nf*m], nil)
	return ps
}

// codeBits returns the bits needed to express codes in [0, binSize).
func (ps *permSet) codeBits() int {
	b := 1
	for 1<<b < ps.binSize {
		b++
	}
	return b
}

// dwta is densified winner-take-all hashing (Chen & Shrivastava 2018):
// WTA evaluated only over the non-zero coordinates of the input, with empty
// bins filled by borrowing the code of a pseudo-randomly probed non-empty
// bin (the densification scheme). NaN is skipped like zero, so a bin's code
// is the position of its largest non-zero, non-NaN value (ties to the lower
// position) whichever order the coordinates are visited in. The dense path
// runs the lane-parallel argmax kernel over every bin; the sparse path
// folds each non-zero into its bins in O(NNZ * K*L*m/dim) updates. Both
// compute the same codes.
type dwta struct {
	ps      *permSet
	seed    uint64
	scratch sync.Pool
}

// dwtaScratch holds per-call accumulation state, pooled across goroutines:
// each function's code (emptyBin while its bin is empty) and, on the
// sparse path, the bin's running maximum.
type dwtaScratch struct {
	maxVal []float32
	code   []uint32
}

func newDWTA(p Params) (*dwta, error) {
	d := &dwta{ps: newPermSet(p), seed: p.Seed}
	nf := d.ps.numFuncs
	d.scratch.New = func() any {
		return &dwtaScratch{
			maxVal: make([]float32, nf),
			code:   make([]uint32, nf),
		}
	}
	return d, nil
}

func (d *dwta) Name() string  { return "dwta" }
func (d *dwta) NumFuncs() int { return d.ps.numFuncs }
func (d *dwta) CodeBits() int { return d.ps.codeBits() }
func (d *dwta) Dim() int      { return d.ps.dim }

func (d *dwta) HashDense(x []float32, out []uint32) {
	if len(x) != d.ps.dim {
		panic("lsh: dwta dense input dimension mismatch")
	}
	sc := d.scratch.Get().(*dwtaScratch)
	d.ps.bins.NonZeroArgMax(sc.code, x)
	d.finish(sc, out)
	d.scratch.Put(sc)
}

// HashDenseRows hashes rows contiguous dense vectors one row at a time,
// holding one scratch across the whole block instead of a pool round trip
// per row. Rows hash independently, so codes match HashDense bitwise.
func (d *dwta) HashDenseRows(block []float32, rows int, out []uint32) {
	ps := d.ps
	checkRowsArgs("dwta", ps.dim, ps.numFuncs, block, rows, out)
	sc := d.scratch.Get().(*dwtaScratch)
	for r := 0; r < rows; r++ {
		ps.bins.NonZeroArgMax(sc.code, block[r*ps.dim:(r+1)*ps.dim])
		d.finish(sc, out[r*ps.numFuncs:(r+1)*ps.numFuncs])
	}
	d.scratch.Put(sc)
}

func (d *dwta) HashSparse(x sparse.Vector, out []uint32) {
	if x.Dim != d.ps.dim {
		panic("lsh: dwta sparse input dimension mismatch")
	}
	sc := d.scratch.Get().(*dwtaScratch)
	for f := range sc.code {
		sc.code[f] = emptyBin
	}
	for j, i := range x.Idx {
		d.accumulate(sc, i, x.Val[j])
	}
	d.finish(sc, out)
	d.scratch.Put(sc)
}

// accumulate folds one coordinate into every permutation's bin, skipping
// zeros and NaN. Ties prefer the lower within-bin position, so the result
// does not depend on coordinate visit order.
func (d *dwta) accumulate(sc *dwtaScratch, coord int32, v float32) {
	if v == 0 || v != v {
		return
	}
	ps := d.ps
	for p := 0; p < ps.numPerms; p++ {
		pos := int(ps.invPerm[p*ps.dim+int(coord)])
		b := pos / ps.binSize
		if b >= ps.binsPerPerm {
			continue // coordinate fell in the unused tail of this permutation
		}
		f := p*ps.binsPerPerm + b
		if f >= ps.numFuncs {
			continue
		}
		j := uint32(pos % ps.binSize)
		if c := sc.code[f]; c == emptyBin || v > sc.maxVal[f] || (v == sc.maxVal[f] && j < c) {
			sc.maxVal[f] = v
			sc.code[f] = j
		}
	}
}

// maxDensifyAttempts bounds the pseudo-random probe sequence used to fill
// an empty bin from a non-empty one.
const maxDensifyAttempts = 100

func (d *dwta) finish(sc *dwtaScratch, out []uint32) {
	nf := d.ps.numFuncs
	for f := 0; f < nf; f++ {
		if c := sc.code[f]; c != emptyBin {
			out[f] = c
			continue
		}
		out[f] = densify(d.seed, f, nf, sc.code)
	}
}

// emptyBin marks a function whose bin received nothing in a DWTA scratch
// code array; it is the DWTA kernel's NoArgMax.
const emptyBin = vecmath.NoArgMax

// densify walks the deterministic probe sequence for empty function f and
// returns the code of the first non-empty donor, or 0 if every probe fails
// (e.g. the all-zero input).
func densify(seed uint64, f, nf int, code []uint32) uint32 {
	for a := 1; a <= maxDensifyAttempts; a++ {
		donor := int(mix64(seed^uint64(f)*0x9e3779b97f4a7c15+uint64(a)) % uint64(nf))
		if code[donor] != emptyBin {
			return code[donor]
		}
	}
	return 0
}
