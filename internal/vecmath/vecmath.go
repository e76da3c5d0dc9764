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
//     axpyUnrolled, axpyRowsUnrolled (one axpyUnrolled per term),
//     outerAccUnrolled, adamStepGo), and the hash kernels' Go loops
//     (signedSumsGo, nonZeroArgMaxGo): the only path on non-amd64 and
//     pre-AVX2 machines, and the reference;
//   - AVX2 assembly (avx2_amd64.s) for five dense row loops — Dot/DotRows,
//     Axpy, AxpyRows, OuterAcc, AdamStep — two lane-parallel hash
//     kernels over a LaneSlab — SignedSums (Simhash) and NonZeroArgMax
//     (DWTA) — their block forms over eight transposed inputs with the
//     transpose and the bucket-address kernels of the table build
//     (block.go: Transpose8, SignedSumsBlock, NonZeroArgMaxBlock,
//     PackAddresses, MixAddresses), and the weight init's polar
//     transform (PolarFactors in polar.go, whose Go path is math.Log's
//     expression and whose assembly is four lanes of math's amd64 log)
//     when the CPU and OS support it (hasAVX2, probed once at init by
//     hand-rolled CPUID/XGETBV). There is one vector tier: no AVX-512, no
//     option.
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
// irrelevant. AxpyRows keeps 64 cells of dst in eight YMM accumulators
// while its terms stream through them, so dst is loaded and stored once
// per call instead of once per term; that changes only where the running
// sum waits between terms, not the operations on it: each cell still takes
// one rounded multiply and one rounded add per term, in term order, and the
// result is bitwise one Axpy per term. The hash kernels put one function in
// each of the eight lanes and walk that function's coordinates in its Go
// loop's order: SignedSums gathers, flips the sign bit and adds (a separate
// add, never FMA) exactly as signedSumsGo does per function, and
// NonZeroArgMax keeps a value only
// when it is neither ±0 nor NaN and strictly greater than the lane's best,
// the same rule nonZeroArgMaxGo's ordered keys encode, so positions and
// ties agree. The block kernels run the same per-lane operations with
// one input per lane instead of one function, and the address kernels
// are integer arithmetic, exact on every path. Two caveats. The Go kernels round twice only where the Go
// compiler does not fuse x*y+z into one FMA: go1.24 fuses on arm64,
// ppc64le, s390x and riscv64, so there the Go kernels can differ in the
// last bit and goldens recorded on amd64 do not hold. On amd64 it does not
// fuse at any GOAMD64 level (it emits FMA only for math.FMA), and the core
// goldens — training, sharded training, answers, tables, model bytes —
// hold at GOAMD64=v1 and v3 alike, with this tier on and with it forced
// off, so they pin the assembly and the Go kernels to the same bits. And
// which NaN comes out of an operation on two NaNs is promised by neither
// side: a NaN result is a NaN result, payloads may differ.
//
// # Safety and preemption
//
// The assembly checks nothing and takes whole 8-cell blocks; the exported
// wrappers make every length and bounds check the Go code makes before
// calling it, and run the n mod 8 tail through the Go kernel. Assembly is
// not asynchronously preemptible, so every call is bounded: at most
// maxCells cells for the element-wise kernels (longer slices are fed in
// pieces), maxCells cell-operations — terms × cells — for AxpyRows
// (longer term lists are fed in runs, wider rows in pieces), four rows of
// at most maxCells cells for the dot (longer vectors take the Go kernel),
// at most maxCells gathered cells for the hash kernels (a row's
// function groups are fed in runs; a function longer than maxCells/8
// coordinates takes the Go kernel), at most maxCells 8-wide loads for
// their block forms and the address kernels (the same runs and the same
// Go fallback) and maxCells cells per transpose — a 20K-row exact
// prediction is thousands of short calls, not one long section in front of
// a stop-the-world. The hash kernels gather only coordinates a LaneSlab
// checked against its input length when it was built, so their wrappers
// check just the input's length and pad a partial last group through a
// full-width buffer. Loads are unaligned; there is no padding or layout
// requirement. Slices passed to one call must not partially overlap.
//
// # Prefetch
//
// Prefetch is a hint, not a kernel: one PREFETCHT0 per cache line of at
// most maxPrefetch bytes (baseline SSE, so every amd64 has it), and nothing
// off amd64. It loads no register, stores nothing and cannot fault, so no
// result depends on it; like the kernels it is bounded and not
// preemptible. Its callers are the walks that know their next row and find
// it scattered: DotRows over gathered ids, and the update phase's claimed
// rows (core), each only when the next row is not the one after the
// current, which the hardware prefetcher already streams.
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

// maxPrefetch bounds the bytes one Prefetch hint covers: 16 cache lines, a
// 256-float row.
const maxPrefetch = 1024

// Prefetch hints the cache lines of x — at most its first maxPrefetch
// bytes — into cache ahead of a read the hardware prefetcher cannot
// predict, such as a row that does not follow the last one read. It reads
// and writes no value and faults on nothing, so it changes no result; off
// amd64 it does nothing.
func Prefetch(x []float32) {
	if len(x) > 0 {
		prefetchT0(&x[0], min(4*len(x), maxPrefetch))
	}
}

// DotRows sets dst[k] = Dot(rows[j][:len(x)], x) for j = ids[k], or j = k
// when ids is nil (every row 0..len(dst)) — the gather form's dense-input
// kernel. Rows may be longer than x; it panics on an id outside rows or a
// row shorter than x. Each dst[k] is bitwise the single-row Dot; the vector
// path takes four rows against one load of x per pass. Gathered rows (ids
// non-nil) are scattered over the slab, so each vector pass prefetches the
// next four; every-row walks leave that to the hardware prefetcher.
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
		if ids != nil {
			for _, j := range ids[k+4 : min(k+8, len(ids))] {
				Prefetch(rows[j][:n])
			}
		}
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

// Term is one addend of AxpyRows: Coef times row K of the call's row
// table.
type Term struct {
	K    int32
	Coef float32
}

// AxpyRows computes dst += Coef·rows[K][:len(dst)] for each term in order —
// per cell the same separate multiply and add as one Axpy per term, in
// term order, so the result is bitwise that loop's. Rows may be longer
// than dst; it panics on a K outside rows or a row shorter than dst. The
// vector path keeps 64 cells of dst in registers while the terms stream
// through them, where a loop of Axpy calls loads and stores dst once per
// term. It is the row-sum of the update-phase replay, the backward
// activation gradient and the first layer's scatter forward.
func AxpyRows(dst []float32, rows [][]float32, terms []Term) {
	n := len(dst)
	for _, t := range terms {
		if uint(t.K) >= uint(len(rows)) {
			panic("vecmath: AxpyRows term outside the row table")
		}
		if len(rows[t.K]) < n {
			panic("vecmath: AxpyRows row shorter than dst")
		}
	}
	if !Unrolled {
		for _, t := range terms {
			axpyScalar(t.Coef, rows[t.K][:n], dst)
		}
		return
	}
	done := 0
	if hasAVX2 && len(terms) > 0 {
		// One call covers at most maxCells cell-operations: a piece of at
		// most maxCells columns, and as many terms as fit over it.
		for n8 := n &^ 7; done < n8; {
			c := min(n8-done, maxCells)
			run := maxCells / c
			for lo := 0; lo < len(terms); lo += run {
				ts := terms[lo:min(lo+run, len(terms))]
				axpyRowsAVX2(&dst[done], &rows[0], &ts[0], len(ts), done, c/8)
			}
			done += c
		}
	}
	axpyRowsUnrolled(dst, rows, terms, done)
}

// axpyRowsUnrolled is AxpyRows over cells [from, len(dst)): one unrolled
// axpy per term, in term order.
func axpyRowsUnrolled(dst []float32, rows [][]float32, terms []Term, from int) {
	if from == len(dst) {
		return
	}
	for _, t := range terms {
		axpyUnrolled(t.Coef, rows[t.K][from:len(dst)], dst[from:])
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
