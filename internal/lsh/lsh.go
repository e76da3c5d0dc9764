// Package lsh implements the locality-sensitive hash families used by
// SLIDE (§3.2 and Appendix A of the paper): Simhash (signed random
// projection with the sparse-projection optimization), WTA (winner-take-all),
// DWTA (densified WTA for sparse inputs) and DOPH (densified one-permutation
// minwise hashing with a top-k binarization front end).
//
// A Family produces NumFuncs() = K*L hash codes per input; the hashtable
// package groups consecutive runs of K codes into one bucket address per
// table. Families hash both dense vectors (neuron weight rows at table
// build time) and sparse vectors (layer inputs at query time) and must
// produce identical codes for equal inputs in either representation.
//
// Simhash and DWTA keep their per-function coordinate lists in one
// function-transposed slab (vecmath.LaneSlab), and their dense paths —
// every table build and rebuild, and every query on a dense layer input —
// run vecmath's lane-parallel kernels over it: eight hash functions per
// vector, each lane walking its function's coordinates in the reference
// order, so codes are bitwise the Go kernels' on every machine. Their
// sparse paths walk coordinate-major transposes of the same state.
package lsh

import (
	"fmt"

	"repro/internal/sparse"
)

// Family is a collection of K*L LSH functions drawn from one hash family.
type Family interface {
	// Name identifies the family, e.g. "simhash".
	Name() string
	// NumFuncs returns the number of hash functions (K*L).
	NumFuncs() int
	// CodeBits returns the number of significant low bits in each code.
	// Codes are guaranteed to be < 1<<CodeBits().
	CodeBits() int
	// Dim returns the input dimensionality the family was built for.
	Dim() int
	// HashDense writes the NumFuncs codes for the dense vector x into out.
	// len(x) must equal Dim and len(out) must be at least NumFuncs.
	HashDense(x []float32, out []uint32)
	// HashDenseRows hashes a block of rows dense vectors stored back to
	// back in block (row r at block[r*Dim():(r+1)*Dim()]), writing row r's
	// codes at out[r*NumFuncs():(r+1)*NumFuncs()]. The result is bitwise
	// identical to calling HashDense once per row; implementations hold
	// one scratch across the block. This is the rebuild-side entry point.
	HashDenseRows(block []float32, rows int, out []uint32)
	// HashSparse writes the NumFuncs codes for the sparse vector x into
	// out. x.Dim must equal Dim and len(out) must be at least NumFuncs.
	HashSparse(x sparse.Vector, out []uint32)
}

// Kind names a hash family for configuration.
type Kind int

const (
	// KindSimhash selects signed random projection (cosine similarity).
	KindSimhash Kind = iota
	// KindWTA selects winner-take-all hashing (rank correlation).
	KindWTA
	// KindDWTA selects densified WTA (rank correlation on sparse data).
	KindDWTA
	// KindDOPH selects densified one-permutation minhash (Jaccard on the
	// top-k binarized input).
	KindDOPH
)

// String returns the configuration name of the kind.
func (k Kind) String() string {
	switch k {
	case KindSimhash:
		return "simhash"
	case KindWTA:
		return "wta"
	case KindDWTA:
		return "dwta"
	case KindDOPH:
		return "doph"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a configuration name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "simhash":
		return KindSimhash, nil
	case "wta":
		return KindWTA, nil
	case "dwta":
		return KindDWTA, nil
	case "doph":
		return KindDOPH, nil
	}
	return 0, fmt.Errorf("lsh: unknown hash family %q", s)
}

// Params configures family construction.
type Params struct {
	// Dim is the input dimensionality (the fan-in of the hashed layer).
	Dim int
	// K is the number of codes concatenated per table.
	K int
	// L is the number of tables.
	L int
	// Seed drives all randomness in the family.
	Seed uint64

	// SimhashDensity is the fraction of non-zero entries in each random
	// projection (the sparse random projection optimization, §3.2).
	// Zero selects the paper's default of 1/3.
	SimhashDensity float64

	// BinSize is the WTA/DWTA bin size m (codes are in [0, BinSize)).
	// Zero selects the default of 8.
	BinSize int

	// TopK is the DOPH binarization threshold: the TopK largest input
	// components are treated as the input set (App. A). Zero selects a
	// default of 30.
	TopK int
}

func (p Params) withDefaults() Params {
	if p.SimhashDensity == 0 {
		p.SimhashDensity = 1.0 / 3.0
	}
	if p.BinSize == 0 {
		p.BinSize = 8
	}
	if p.TopK == 0 {
		p.TopK = 30
	}
	return p
}

func (p Params) validate() error {
	if p.Dim <= 0 {
		return fmt.Errorf("lsh: Dim must be positive, got %d", p.Dim)
	}
	if p.K <= 0 || p.L <= 0 {
		return fmt.Errorf("lsh: K and L must be positive, got K=%d L=%d", p.K, p.L)
	}
	return nil
}

// New constructs a hash family of the given kind.
func New(kind Kind, p Params) (Family, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch kind {
	case KindSimhash:
		return newSimhash(p)
	case KindWTA:
		return newWTA(p)
	case KindDWTA:
		return newDWTA(p)
	case KindDOPH:
		return newDOPH(p)
	default:
		return nil, fmt.Errorf("lsh: unknown kind %v", kind)
	}
}

// checkRowsArgs validates a HashDenseRows call's shapes for family name.
func checkRowsArgs(name string, dim, nf int, block []float32, rows int, out []uint32) {
	if rows < 0 {
		panic("lsh: " + name + " negative row count")
	}
	if len(block) < rows*dim {
		panic("lsh: " + name + " row block shorter than rows*Dim")
	}
	if len(out) < rows*nf {
		panic("lsh: " + name + " code output shorter than rows*NumFuncs")
	}
}

// mix64 is SplitMix64's finalizer; used wherever a family needs a cheap
// stateless integer hash (densification probes, minhash value hashing).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
