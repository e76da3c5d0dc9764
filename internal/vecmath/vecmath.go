// Package vecmath provides the float32 vector kernels used by both the
// SLIDE network and the dense baseline — the paper's hand-vectorized inner
// loops (§5.4 / App. D, "Intel AVX SIMD").
//
// # Tiers
//
// A kernel has up to three implementations, chosen in one place — this
// package's exported entry points — and nowhere else:
//
//   - plain scalar Go, when Unrolled is false (the Fig. 10 ablation);
//   - 8-way unrolled Go with independent accumulators (dotUnrolled,
//     axpyUnrolled, outerAccUnrolled, adamStepGo): the only path on
//     non-amd64 and pre-AVX2 machines, and the reference;
//   - AVX2 assembly (avx2_amd64.s) for four dense row loops — Dot/DotRows,
//     Axpy, OuterAcc, AdamStep — when the CPU
//     and OS support it (hasAVX2, probed once at init by hand-rolled
//     CPUID/XGETBV). There is one vector tier: no AVX-512, no option.
//
// # Same bits
//
// The unrolled Go kernels define the result; the assembly reproduces it bit
// for bit, so training goldens do not depend on the machine's tier. It can
// because it performs the same float32 operations per cell in the same
// order: separate multiply and add with one rounding each — never FMA,
// which rounds once where Go rounds twice — and, for the dot product, the
// same summation order: eight running sums (lane k sums cells ≡ k mod 8,
// one YMM accumulator per row) reduced left to right as
// (((s0+s1)+(s2+s3))+(s4+s5))+(s6+s7), then the n mod 8 tail cells added
// in order. Axpy, OuterAcc and AdamStep are element-wise, so lane order is
// irrelevant. Two caveats. The equality is with Go compiled at the default
// GOAMD64=v1: at GOAMD64=v3 the Go compiler may itself fuse x*y+z, the Go
// kernels then differ from the v1 build (and from the assembly) in the last
// bit, and goldens recorded at v1 do not hold. And which NaN comes out of
// an operation on two NaNs is promised by neither side: a NaN result is a
// NaN result, payloads may differ.
//
// # Safety and preemption
//
// The assembly checks nothing and takes whole 8-cell blocks; the exported
// wrappers make every length and bounds check the Go code makes before
// calling it, and run the n mod 8 tail through the Go kernel. Assembly is
// not asynchronously preemptible, so every call is bounded: at most
// maxCells cells for the element-wise kernels (longer slices are fed in
// pieces) and four rows of at most maxCells cells for the dot (longer
// vectors take the Go kernel) — a 20K-row exact prediction is thousands of
// short calls, not one long section in front of a stop-the-world. Loads
// are unaligned; there is no padding or layout requirement. Slices passed
// to one call must not partially overlap.
package vecmath

import "math"

// Unrolled selects the optimized kernels when true (the default): AVX2
// where available, 8-way unrolled Go otherwise. False selects plain scalar
// Go. It exists for the Fig. 10 optimization ablation; flip it only in
// single-threaded setup code, never mid-training.
var Unrolled = true

// maxCells bounds the cells per row one assembly call covers (~1 µs of
// non-preemptible work in cache).
const maxCells = 4096

// Dot returns the inner product of a and b. The slices must have equal
// length.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("vecmath: Dot length mismatch")
	}
	if !Unrolled {
		return dotScalar(a, b)
	}
	if n := len(a); hasAVX2 && n >= 8 && n <= maxCells {
		var out [4]float32
		r := &a[0]
		dot4AVX2(&b[0], r, r, r, r, n/8, &out)
		return dotTail(out[0], a, b)
	}
	return dotUnrolled(a, b)
}

// dotTail adds the n mod 8 tail products to s, the reduced sum of the
// whole blocks, in dotUnrolled's order.
func dotTail(s float32, a, b []float32) float32 {
	for i := len(a) &^ 7; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// DotRows sets dst[k] = Dot(rows[j][:len(x)], x) for j = ids[k], or j = k
// when ids is nil (every row 0..len(dst)) — the gather form's dense-input
// kernel. Rows may be longer than x; it panics on an id outside rows or a
// row shorter than x. Each dst[k] is bitwise the single-row Dot; the vector
// path takes four rows against one load of x per pass.
func DotRows(dst []float32, rows [][]float32, ids []int32, x []float32) {
	if ids != nil && len(ids) != len(dst) {
		panic("vecmath: DotRows id/output length mismatch")
	}
	n := len(x)
	row := func(k int) []float32 {
		if ids != nil {
			return rows[ids[k]][:n]
		}
		return rows[k][:n]
	}
	if !Unrolled || !hasAVX2 || n < 8 || n > maxCells {
		for k := range dst {
			dst[k] = Dot(row(k), x)
		}
		return
	}
	k := 0
	for ; k+4 <= len(dst); k += 4 {
		r0, r1, r2, r3 := row(k), row(k+1), row(k+2), row(k+3)
		out := (*[4]float32)(dst[k:])
		dot4AVX2(&x[0], &r0[0], &r1[0], &r2[0], &r3[0], n/8, out)
		if n&7 != 0 {
			out[0] = dotTail(out[0], r0, x)
			out[1] = dotTail(out[1], r1, x)
			out[2] = dotTail(out[2], r2, x)
			out[3] = dotTail(out[3], r3, x)
		}
	}
	for ; k < len(dst); k++ {
		dst[k] = Dot(row(k), x)
	}
}

func dotScalar(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

func dotUnrolled(a, b []float32) float32 {
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	n := len(a) &^ 7
	for i := 0; i < n; i += 8 {
		aa := a[i : i+8 : i+8]
		bb := b[i : i+8 : i+8]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
		s4 += aa[4] * bb[4]
		s5 += aa[5] * bb[5]
		s6 += aa[6] * bb[6]
		s7 += aa[7] * bb[7]
	}
	return dotTail((s0+s1)+(s2+s3)+(s4+s5)+(s6+s7), a, b)
}

// SparseDot returns the inner product of a sparse vector (idx, val pairs)
// with the dense vector w, i.e. sum over j of val[j]*w[idx[j]].
func SparseDot(idx []int32, val []float32, w []float32) float32 {
	if len(idx) != len(val) {
		panic("vecmath: SparseDot index/value length mismatch")
	}
	if Unrolled {
		return sparseDotUnrolled(idx, val, w)
	}
	return sparseDotScalar(idx, val, w)
}

func sparseDotScalar(idx []int32, val []float32, w []float32) float32 {
	var s float32
	for j, i := range idx {
		s += val[j] * w[i]
	}
	return s
}

func sparseDotUnrolled(idx []int32, val []float32, w []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(idx) &^ 3
	for j := 0; j < n; j += 4 {
		ii := idx[j : j+4 : j+4]
		vv := val[j : j+4 : j+4]
		s0 += vv[0] * w[ii[0]]
		s1 += vv[1] * w[ii[1]]
		s2 += vv[2] * w[ii[2]]
		s3 += vv[3] * w[ii[3]]
	}
	s := (s0 + s1) + (s2 + s3)
	for j := n; j < len(idx); j++ {
		s += val[j] * w[idx[j]]
	}
	return s
}

// DotBiasReLU returns max(0, b + dot(w, x)) — one layer neuron's fused
// forward step (pre-activation plus bias plus ReLU) in a single pass over
// the weight row. The slices must have equal length. The gather-form
// kernel engine calls it once per active neuron on dense inputs.
func DotBiasReLU(b float32, w, x []float32) float32 {
	s := b + Dot(w, x)
	if s < 0 {
		return 0
	}
	return s
}

// SparseDotBiasReLU is DotBiasReLU over a sparse input vector (idx, val
// pairs): max(0, b + sum_j val[j]*w[idx[j]]).
func SparseDotBiasReLU(b float32, idx []int32, val, w []float32) float32 {
	s := b + SparseDot(idx, val, w)
	if s < 0 {
		return 0
	}
	return s
}

// OuterAcc fuses the two per-row backward updates into one pass over the
// dense input: g += d*x (the delta×input outer-product row, accumulating
// weight gradient) and acc += d*w (the activation-gradient gather toward
// the previous layer). Reading w before any write preserves classical
// backprop semantics within the element; every cell receives exactly one
// add, so the result is bit-identical to the separate scalar loops. All
// slices must have equal length. The trainer computes the two halves
// apart (acc per element, g per row at the batch boundary) with Axpy; the
// benchmark times this fused row as a probe.
func OuterAcc(d float32, x, w, g, acc []float32) {
	if len(x) != len(w) || len(x) != len(g) || len(x) != len(acc) {
		panic("vecmath: OuterAcc length mismatch")
	}
	if !Unrolled {
		outerAccScalar(d, x, w, g, acc)
		return
	}
	done := 0
	if hasAVX2 {
		for n8 := len(x) &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			outerAccAVX2(d, &x[done], &w[done], &g[done], &acc[done], c/8)
			done += c
		}
	}
	outerAccUnrolled(d, x[done:], w[done:], g[done:], acc[done:])
}

func outerAccScalar(d float32, x, w, g, acc []float32) {
	for i := range x {
		acc[i] += d * w[i]
		g[i] += d * x[i]
	}
}

func outerAccUnrolled(d float32, x, w, g, acc []float32) {
	n := len(x) &^ 3
	for i := 0; i < n; i += 4 {
		xx := x[i : i+4 : i+4]
		ww := w[i : i+4 : i+4]
		gg := g[i : i+4 : i+4]
		aa := acc[i : i+4 : i+4]
		aa[0] += d * ww[0]
		aa[1] += d * ww[1]
		aa[2] += d * ww[2]
		aa[3] += d * ww[3]
		gg[0] += d * xx[0]
		gg[1] += d * xx[1]
		gg[2] += d * xx[2]
		gg[3] += d * xx[3]
	}
	for i := n; i < len(x); i++ {
		acc[i] += d * w[i]
		g[i] += d * x[i]
	}
}

// IndexedAxpy scatters g[pos[t]] += d*val[t] for each sparse component —
// SparseAxpy with the write positions decoupled from the input's column
// ids. It is the gradient replay's kernel for a wide sparse input: pos maps
// the element's input columns into a compact row over the batch's touched
// columns, so the loop body is SparseAxpy's arithmetic in the same order.
// pos and val must have equal length.
func IndexedAxpy(d float32, pos []int32, val []float32, g []float32) {
	if len(pos) != len(val) {
		panic("vecmath: IndexedAxpy position/value length mismatch")
	}
	for t, p := range pos {
		g[p] += d * val[t]
	}
}

// Axpy computes y += alpha*x element-wise. The slices must have equal
// length.
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("vecmath: Axpy length mismatch")
	}
	if !Unrolled {
		axpyScalar(alpha, x, y)
		return
	}
	done := 0
	if hasAVX2 {
		for n8 := len(x) &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			axpyAVX2(alpha, &x[done], &y[done], c/8)
			done += c
		}
	}
	axpyUnrolled(alpha, x[done:], y[done:])
}

func axpyScalar(alpha float32, x, y []float32) {
	for i := range x {
		y[i] += alpha * x[i]
	}
}

func axpyUnrolled(alpha float32, x, y []float32) {
	n := len(x) &^ 7
	for i := 0; i < n; i += 8 {
		xx := x[i : i+8 : i+8]
		yy := y[i : i+8 : i+8]
		yy[0] += alpha * xx[0]
		yy[1] += alpha * xx[1]
		yy[2] += alpha * xx[2]
		yy[3] += alpha * xx[3]
		yy[4] += alpha * xx[4]
		yy[5] += alpha * xx[5]
		yy[6] += alpha * xx[6]
		yy[7] += alpha * xx[7]
	}
	for i := n; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// SparseAxpy scatters y[idx[j]] += alpha*val[j] for each sparse component.
func SparseAxpy(alpha float32, idx []int32, val []float32, y []float32) {
	if len(idx) != len(val) {
		panic("vecmath: SparseAxpy index/value length mismatch")
	}
	for j, i := range idx {
		y[i] += alpha * val[j]
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Fill sets every element of x to v.
func Fill(x []float32, v float32) {
	for i := range x {
		x[i] = v
	}
}

// Max returns the maximum element of x. It panics on an empty slice.
func Max(x []float32) float32 {
	if len(x) == 0 {
		panic("vecmath: Max of empty slice")
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// ArgMax returns the index of the maximum element of x, breaking ties in
// favour of the lowest index. It panics on an empty slice.
func ArgMax(x []float32) int {
	if len(x) == 0 {
		panic("vecmath: ArgMax of empty slice")
	}
	best, bi := x[0], 0
	for i, v := range x[1:] {
		if v > best {
			best, bi = v, i+1
		}
	}
	return bi
}

// Softmax overwrites x with softmax(x), computed with the max-subtraction
// trick for numerical stability. The sum is accumulated in float64.
func Softmax(x []float32) {
	if len(x) == 0 {
		return
	}
	m := Max(x)
	var sum float64
	for i, v := range x {
		e := float32(math.Exp(float64(v - m)))
		x[i] = e
		sum += float64(e)
	}
	inv := float32(1 / sum)
	Scale(inv, x)
}

// LogSumExp returns log(sum_i exp(x_i)) computed stably in float64.
func LogSumExp(x []float32) float32 {
	if len(x) == 0 {
		return float32(math.Inf(-1))
	}
	m := Max(x)
	var sum float64
	for _, v := range x {
		sum += math.Exp(float64(v - m))
	}
	return m + float32(math.Log(sum))
}

// ReLU overwrites x with max(x, 0).
func ReLU(x []float32) {
	for i, v := range x {
		if v < 0 {
			x[i] = 0
		}
	}
}

// Norm2 returns the Euclidean norm of x, accumulated in float64.
func Norm2(x []float32) float32 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return float32(math.Sqrt(s))
}

// CosineSim returns the cosine similarity of a and b, or 0 if either has
// zero norm. The slices must have equal length.
func CosineSim(a, b []float32) float32 {
	na, nb := Norm2(a), Norm2(b)
	if na == 0 || nb == 0 {
		return 0
	}
	return Dot(a, b) / (na * nb)
}
