package vecmath

import "math"

// LaneSlab is a bank of n gather functions over inputs of one length — the
// hash families' per-function coordinate lists — stored function-transposed
// for the lane-parallel hash kernels. Functions are taken eight at a time:
// function f is lane f%8 of group f/8, and its j-th input coordinate is
// entry (f/8*steps+j)*8 + f%8. One 8-wide load of the slab is then the j-th
// coordinate of eight functions, which one VGATHERDPS reads from the input.
// The top bit of an entry is the function's negate flag for that
// coordinate (SignedSums). The last group is padded with coordinate-0 lanes
// whose results are dropped.
//
// A slab is immutable once built and every coordinate is checked against
// dim at construction, so a kernel call checks only the input's length.
type LaneSlab struct {
	dim, n, steps int
	ent           []uint32
}

// negFlag marks an entry whose coordinate SignedSums subtracts.
const negFlag = 1 << 31

// NoArgMax is NonZeroArgMax's result for a function whose coordinates are
// all zero or NaN.
const NoArgMax = ^uint32(0)

// NewLaneSlab builds the slab for len(coord)/steps functions from their
// function-major coordinates: function f reads coord[f*steps:(f+1)*steps]
// in that order. neg, when non-nil, is aligned with coord and marks the
// entries SignedSums subtracts. It panics on a coordinate outside [0, dim)
// or a coord slice that is not a whole number of functions.
func NewLaneSlab(dim, steps int, coord []int32, neg []bool) *LaneSlab {
	if dim <= 0 || steps <= 0 || len(coord)%steps != 0 {
		panic("vecmath: NewLaneSlab shape mismatch")
	}
	if neg != nil && len(neg) != len(coord) {
		panic("vecmath: NewLaneSlab sign/coordinate length mismatch")
	}
	n := len(coord) / steps
	t := &LaneSlab{dim: dim, n: n, steps: steps, ent: make([]uint32, (n+7)/8*8*steps)}
	for f := 0; f < n; f++ {
		base := t.base(f)
		for j, c := range coord[f*steps : (f+1)*steps] {
			if c < 0 || int(c) >= dim {
				panic("vecmath: NewLaneSlab coordinate out of range")
			}
			e := uint32(c)
			if neg != nil && neg[f*steps+j] {
				e |= negFlag
			}
			t.ent[base+8*j] = e
		}
	}
	return t
}

// Steps returns the number of coordinates each function reads.
func (t *LaneSlab) Steps() int { return t.steps }

// base is the entry index of function f's first coordinate; its j-th is
// at base+8*j.
func (t *LaneSlab) base(f int) int { return f>>3*t.steps*8 + f&7 }

// Coord returns function f's j-th input coordinate.
func (t *LaneSlab) Coord(f, j int) int { return int(t.ent[t.base(f)+8*j] &^ negFlag) }

func (t *LaneSlab) check(name string, nx, ndst int) {
	if nx != t.dim {
		panic("vecmath: " + name + " input length mismatch")
	}
	if ndst < t.n {
		panic("vecmath: " + name + " output shorter than the function count")
	}
}

// SignedSums sets dst[f] to function f's signed sum of its coordinates of
// x, added in coordinate order from zero, an entry with the negate flag
// adding -x[i]. len(x) must equal the slab's dim; dst must hold a value per
// function.
func (t *LaneSlab) SignedSums(dst, x []float32) {
	t.check("SignedSums", len(x), len(dst))
	if !Unrolled || !hasAVX2 || 8*t.steps > maxCells {
		signedSumsGo(t, dst, x)
		return
	}
	full, per := t.n/8, maxCells/(8*t.steps)
	for g := 0; g < full; g += per {
		signedSumsAVX2(&x[0], &t.ent[g*8*t.steps], t.steps, min(full-g, per), &dst[8*g])
	}
	if full*8 < t.n {
		var out [8]float32
		signedSumsAVX2(&x[0], &t.ent[full*8*t.steps], t.steps, 1, &out[0])
		copy(dst[8*full:t.n], out[:])
	}
}

// NonZeroArgMax sets dst[f] to the position j in [0, Steps) of the largest
// value among function f's coordinates of x, skipping ±0 and NaN, ties
// going to the lower position — or NoArgMax when every coordinate is
// skipped. len(x) must equal the slab's dim; dst must hold a value per
// function.
func (t *LaneSlab) NonZeroArgMax(dst []uint32, x []float32) {
	t.check("NonZeroArgMax", len(x), len(dst))
	if !Unrolled || !hasAVX2 || 8*t.steps > maxCells {
		nonZeroArgMaxGo(t, dst, x)
		return
	}
	full, per := t.n/8, maxCells/(8*t.steps)
	for g := 0; g < full; g += per {
		argMaxAVX2(&x[0], &t.ent[g*8*t.steps], t.steps, min(full-g, per), &dst[8*g])
	}
	if full*8 < t.n {
		var out [8]uint32
		argMaxAVX2(&x[0], &t.ent[full*8*t.steps], t.steps, 1, &out[0])
		copy(dst[8*full:t.n], out[:])
	}
}

// signedSumsGo is SignedSums' Go kernel: the reference the vector kernel is
// tested against and the path off amd64. A negated entry flips the input's
// sign bit before the add, which IEEE rules make bit-identical to a
// subtraction.
func signedSumsGo(t *LaneSlab, dst, x []float32) {
	for f := 0; f < t.n; f++ {
		ent := t.ent[t.base(f):]
		var acc float32
		for j := 0; j < t.steps; j++ {
			e := ent[8*j]
			acc += math.Float32frombits(math.Float32bits(x[e&^negFlag]) ^ e&negFlag)
		}
		dst[f] = acc
	}
}

// nonZeroArgMaxGo is NonZeroArgMax's Go kernel, branch-free: each
// coordinate becomes the key orderedKey(v)<<32 | ^j — float order, then
// lower position on ties — with a skipped value mapped to key 0, below
// every real key; the function's code is the low word of the maximum key,
// inverted, which is NoArgMax when the maximum is 0.
func nonZeroArgMaxGo(t *LaneSlab, dst []uint32, x []float32) {
	for f := 0; f < t.n; f++ {
		ent := t.ent[t.base(f):]
		var best uint64
		for j := 0; j < t.steps; j++ {
			b := math.Float32bits(x[ent[8*j]&^negFlag])
			// All ones unless v is ±0 (|b| = 0) or NaN (|b| > +Inf's bits).
			keep := uint64((int64(uint32(b&^negFlag-1)) - 0x7f800000) >> 63)
			best = max(best, (uint64(orderedKey(b))<<32|uint64(^uint32(j)))&keep)
		}
		dst[f] = ^uint32(best)
	}
}

// orderedKey maps the bits of a non-NaN float32 to a uint32 that orders
// like the float (-0 just below +0). Every such key is at least -Inf's,
// 0x007fffff, so key 0 is free for skipped values.
func orderedKey(b uint32) uint32 {
	return b ^ (uint32(int32(b)>>31) | 1<<31)
}
