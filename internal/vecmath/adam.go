package vecmath

import "math"

// adamParams are one Adam step's per-call constants, laid out for the
// vector kernels to broadcast (avx2_amd64.s reads the fields by offset).
// scale is AdamStepBF16's gradient scale (AdamStep has none), and weyl
// the bfloat16 kernel's Dither input for its first cell,
// key + col·ditherWeyl.
type adamParams struct {
	scale, b1, omb1, b2, omb2, eps, alpha float32
	weyl                                  uint32
}

func newAdamParams(scale, b1, b2, eps, alpha float32) adamParams {
	return adamParams{scale: scale, b1: b1, omb1: 1 - b1, b2: b2, omb2: 1 - b2, eps: eps, alpha: alpha}
}

// AdamStep applies one Adam step to the first len(g) cells of a weight row
// with float32 moments, cell k stepping with gradient gi = g[k]:
//
//	nm := b1*m + (1-b1)*gi;  nv := b2*v + (1-b2)*gi*gi
//	w  -= alpha*nm / (sqrt(nv) + eps)
//
// on raw moments (alpha carries the bias correction). Every cell steps. It
// is the dense baseline's row step (optim.Adam.StepRow), and the
// expressions are optim.Adam.Step1's in the same order, so a row step is
// bit-identical to a Step1 per cell. Plain writes; the caller guarantees
// exclusive access to the row.
func AdamStep(w, m, v, g []float32, b1, b2, eps, alpha float32) {
	n := len(g)
	w, m, v = w[:n], m[:n], v[:n]
	p := newAdamParams(1, b1, b2, eps, alpha)
	done := 0
	if hasAVX2 {
		for n8 := n &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			adamAVX2(&w[done], &m[done], &v[done], &g[done], c/8, &p)
			done += c
		}
	}
	adamStepGo(w[done:], m[done:], v[done:], g[done:], &p)
}

// adamStepGo is AdamStep's Go kernel: the reference the vector kernel is
// tested against, and the path for block tails and machines without AVX2.
func adamStepGo(w, m, v, g []float32, p *adamParams) {
	m, v = m[:len(w)], v[:len(w)]
	for k, gi := range g {
		nm := p.b1*m[k] + p.omb1*gi
		nv := p.b2*v[k] + p.omb2*gi*gi
		m[k] = nm
		v[k] = nv
		w[k] -= p.alpha * nm / (float32(math.Sqrt(float64(nv))) + p.eps)
	}
}

// The sparse trainer stores its weights' Adam moments as bfloat16: a
// float32's top 16 bits (sign, 8 exponent bits, 7 mantissa bits), the same
// range at 8 bits of precision in half the bytes. WidenBF16, NarrowBF16
// and Dither are the encoding, here once; every path that reads or writes
// a moment goes through them or through the vector kernel that reproduces
// them bit for bit.
//
// Both moments round stochastically. A step moves v by at most
// (1-β2) = 0.1% toward g², less than half a bfloat16 ulp (0.2–0.4%), so a
// round-to-nearest v could never fall and would rise only once g² passed
// 3–5× v; m moves 10% of its distance to g a step, so a round-to-nearest
// m stalls 2–4% short of a steady gradient. Rounded away from zero with
// probability equal to the fraction it drops, a stored moment equals the
// float32 one in expectation.

// WidenBF16 returns the float32 whose top 16 bits are h and whose low 16
// bits are zero: exact, a 16-bit shift.
func WidenBF16(h uint16) float32 { return math.Float32frombits(uint32(h) << 16) }

// NarrowBF16 rounds f to one of the two bfloat16 values around it by
// adding the dither d (< 1<<16) to the 16 bits it drops and keeping the
// top 16: f rounds away from zero when d is at least 1<<16 less the
// dropped bits, so for a uniform d with probability equal to the fraction
// of an ulp it drops. ±0, ±Inf and every bfloat16 value (a widened one)
// map to themselves whatever d; a finite value past the largest bfloat16
// may round to ±Inf; subnormals round like any other value, with no flush
// to zero. A NaN stays a NaN: it keeps its sign and top payload bits and
// gets the quiet bit, so a payload only in the dropped bits cannot round
// into the exponent and read as Inf.
func NarrowBF16(f float32, d uint32) uint16 {
	u := math.Float32bits(f)
	if u&0x7fffffff > 0x7f800000 {
		return uint16(u>>16) | 0x40
	}
	return uint16((u + d) >> 16)
}

// Dither returns the 32 dither bits of column col of a row keyed by key:
// the low half rounds the cell's m, the high half its v (NarrowBF16). It
// is the lowbias32 integer hash (two multiplies, three xor-shifts, which
// the vector kernel repeats lane by lane) of key + col·ditherWeyl, so a
// rounding is a pure function of (key, col): the sparse trainer keys a
// row per update, layer and row (core's momentKey).
func Dither(key uint32, col int) uint32 {
	x := key + uint32(col)*ditherWeyl
	x ^= x >> 16
	x *= 0x21f0aaad
	x ^= x >> 15
	x *= 0x735a2d97
	x ^= x >> 15
	return x
}

// ditherWeyl steps a row's dither input from one column to the next (the
// golden ratio's 32-bit fraction, odd).
const ditherWeyl = 0x9e3779b9

// AdamStepBF16 is AdamStep over bfloat16 moments, the sparse trainer's one
// row step: cell k is column k, and steps with gradient g[k]*scale unless
// g[k] is ±0 (the batch left it alone, and stepping it would decay its
// moments). A stepped cell's moments are widened and stepped with
// AdamStep's expressions in their order, then stored by NarrowBF16 with
// the halves of Dither(key, k); w steps with the unrounded float32
// moments. Returns the number of cells stepped. m and v must be at least
// as long as g. Plain writes; the caller guarantees exclusive access to
// the row.
func AdamStepBF16(w []float32, m, v []uint16, g []float32, key uint32, scale, b1, b2, eps, alpha float32) int {
	n := len(g)
	w, m, v = w[:n], m[:n], v[:n]
	p := newAdamParams(scale, b1, b2, eps, alpha)
	done, stepped := 0, 0
	if hasAVX2 {
		for n8 := n &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			p.weyl = key + uint32(done)*ditherWeyl
			stepped += c - adamBF16AVX2(&w[done], &m[done], &v[done], &g[done], c/8, &p)
			done += c
		}
	}
	return stepped + adamStepBF16Go(w[done:], m[done:], v[done:], g[done:], key, done, &p)
}

// adamStepBF16Go is AdamStepBF16's Go kernel, the reference its vector
// kernel is tested against: optim.Adam.Step1's expressions in Step1's
// order on the widened moments. Cell k is column col0+k.
func adamStepBF16Go(w []float32, m, v []uint16, g []float32, key uint32, col0 int, p *adamParams) int {
	m, v = m[:len(w)], v[:len(w)]
	stepped := 0
	for k, gk := range g {
		if gk == 0 {
			continue
		}
		gi := gk * p.scale
		nm := p.b1*WidenBF16(m[k]) + p.omb1*gi
		nv := p.b2*WidenBF16(v[k]) + p.omb2*gi*gi
		d := Dither(key, col0+k)
		m[k] = NarrowBF16(nm, d&0xffff)
		v[k] = NarrowBF16(nv, d>>16)
		w[k] -= p.alpha * nm / (float32(math.Sqrt(float64(nv))) + p.eps)
		stepped++
	}
	return stepped
}
