// Package lsh implements the two locality-sensitive hash families SLIDE
// evaluates (§3.2 and Appendix A of the paper): Simhash (signed random
// projection with the sparse-projection optimization), used on
// Delicious-200K, and DWTA (densified winner-take-all for sparse inputs),
// used on Amazon-670K.
//
// A Family produces NumFuncs() = K*L hash codes per input; the hashtable
// package groups consecutive runs of K codes into one bucket address per
// table. Families hash both dense vectors (neuron weight rows at table
// build time) and sparse vectors (layer inputs at query time) and must
// produce identical codes for equal inputs in either representation.
//
// Both families keep their per-function coordinate lists in one
// function-transposed slab (vecmath.LaneSlab), and their dense paths run
// vecmath's kernels over it, in two forms. A query on a dense layer input
// (HashDense) runs the row kernels: eight hash functions per step, each
// lane gathering its function's coordinates in the reference order. A
// table build or rebuild (HashBlock, and HashDenseRows on top of it) runs
// the block kernels: eight vectors per step, transposed so that each of a
// function's coordinates is one plain load for all eight. Every lane of
// either form performs the Go kernels' operations in their order, so codes
// are bitwise the same on every path and machine. Their sparse paths walk
// coordinate-major transposes of the same state.
package lsh

import (
	"fmt"

	"repro/internal/sparse"
	"repro/internal/vecmath"
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
	// HashBlock writes the codes of eight dense vectors held transposed in
	// xt (vector r's coordinate c at xt[c*8+r], len 8*Dim, as
	// vecmath.Transpose8 fills it) to codes, function-major by vector:
	// function f's code for vector r at codes[f*8+r], len at least
	// 8*NumFuncs. Each vector's codes are bitwise HashDense's. This is the
	// table build's entry point.
	HashBlock(xt []float32, codes []uint32)
	// HashDenseRows hashes rows dense vectors stored back to back in block
	// (row r at block[r*Dim():(r+1)*Dim()]), writing row r's codes at
	// out[r*NumFuncs():(r+1)*NumFuncs()], bitwise HashDense per row: it
	// transposes eight rows at a time and runs HashBlock.
	HashDenseRows(block []float32, rows int, out []uint32)
	// HashSparse writes the NumFuncs codes for the sparse vector x into
	// out. x.Dim must equal Dim and len(out) must be at least NumFuncs.
	HashSparse(x sparse.Vector, out []uint32)
}

// Kind names a hash family for configuration. Model files store it as
// an integer, so each kind keeps its value; 1 and 3 named families that
// have been removed.
type Kind int

const (
	// KindSimhash selects signed random projection (cosine similarity).
	KindSimhash Kind = 0
	// KindDWTA selects densified WTA (rank correlation on sparse data).
	KindDWTA Kind = 2
)

// String returns the configuration name of the kind.
func (k Kind) String() string {
	switch k {
	case KindSimhash:
		return "simhash"
	case KindDWTA:
		return "dwta"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a configuration name into a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "simhash":
		return KindSimhash, nil
	case "dwta":
		return KindDWTA, nil
	}
	return 0, fmt.Errorf("lsh: unknown hash family %q", s)
}

// Validate returns an error naming k unless New can build it.
func (k Kind) Validate() error {
	if k != KindSimhash && k != KindDWTA {
		return fmt.Errorf("lsh: unknown hash family %v", k)
	}
	return nil
}

// CodeBits returns the CodeBits of the family New(k, p) builds, without
// building it: a DWTA code is a position in a bin of min(BinSize, Dim)
// coordinates, any other a bit.
func (k Kind) CodeBits(p Params) int {
	if k == KindDWTA {
		p = p.withDefaults()
		return binBits(min(p.BinSize, p.Dim))
	}
	return 1
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

	// BinSize is the DWTA bin size m (codes are in [0, BinSize)).
	// Zero selects the default of 8.
	BinSize int

	// TopK is unused: no family reads it. It exists for
	// benchmark/probe.go and goes when a benchmark PR stops setting it.
	TopK int
}

func (p Params) withDefaults() Params {
	if p.SimhashDensity == 0 {
		p.SimhashDensity = 1.0 / 3.0
	}
	if p.BinSize == 0 {
		p.BinSize = 8
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
	case KindDWTA:
		return newDWTA(p)
	default:
		return nil, kind.Validate() // names the unknown kind
	}
}

// hashDenseRows is both families' HashDenseRows: eight rows at a time,
// transposed (a partial last block repeats its last row), hashed by
// HashBlock and copied out row-major.
func hashDenseRows(fam Family, block []float32, rows int, out []uint32) {
	name, dim, nf := fam.Name(), fam.Dim(), fam.NumFuncs()
	if rows < 0 {
		panic("lsh: " + name + " negative row count")
	}
	if len(block) < rows*dim {
		panic("lsh: " + name + " row block shorter than rows*Dim")
	}
	if len(out) < rows*nf {
		panic("lsh: " + name + " code output shorter than rows*NumFuncs")
	}
	if rows == 0 {
		return
	}
	xt, codes := make([]float32, 8*dim), make([]uint32, 8*nf)
	for base := 0; base < rows; base += 8 {
		n := min(8, rows-base)
		vecmath.Transpose8(xt, block[base*dim:(base+n)*dim], dim)
		fam.HashBlock(xt, codes)
		for r := 0; r < n; r++ {
			row := out[(base+r)*nf:][:nf]
			for f := range row {
				row[f] = codes[f*8+r]
			}
		}
	}
}

// mix64 is SplitMix64's finalizer: the cheap stateless integer hash of
// DWTA's densification probes.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
