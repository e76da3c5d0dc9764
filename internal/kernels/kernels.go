// Package kernels holds the two forward kernels between the SLIDE network
// (internal/core) and the raw vector kernels (internal/vecmath). Which one
// a layer runs follows from how the layer stores its weights, which is
// fixed when the network is built:
//
//   - gather: the classical per-active-neuron formulation over neuron-major
//     rows — one fused dot+bias(+ReLU) per active row, rows visited in
//     ascending id order for locality. Every layer but an unsampled first
//     one runs it: the sampled layers, whose active output fraction is
//     small, and the layers with a dense input.
//   - scatter: the input-major formulation — every input nonzero's
//     contiguous out-wide weight slice, scaled by its value, summed into
//     the dense output workspace by one vecmath.AxpyRows row sum, which
//     holds the output in registers while the slices stream through. The
//     first layer runs it when it is not sampled: every neuron is active
//     and the input is the example's sparse feature vector, so a gather
//     would issue out×nnz scattered single-float reads where the scatter
//     streams nnz contiguous out-length slices. That layer stores its
//     weights input-major (a Mirror over the network arena, or over the
//     loaded model file), and no other copy exists.
//
// This is the vectorization/memory-layout work the follow-up paper
// "Accelerating SLIDE Deep Learning on Modern CPUs" (Daghaghi et al.,
// MLSys 2021) reports as worth 2-7x on exactly these loops: weights stored
// in the order the kernel streams them.
package kernels

import (
	"fmt"

	"repro/internal/vecmath"
)

// Mirror is an input-major weight matrix: Col(i) is the contiguous slice
// of every neuron's weight for input i — the row the scatter form adds per
// input nonzero. A network's scatter layer keeps its weights in
// one (MirrorOver); NewMirror and Rebuild build one from neuron-major
// rows.
type Mirror struct {
	in, out int
	t       []float32 // t[i*out+j] = neuron j's weight for input i
}

// NewMirror allocates an unfilled in×out mirror on the heap; call Rebuild
// to populate it.
func NewMirror(in, out int) *Mirror {
	return &Mirror{in: in, out: out, t: make([]float32, in*out)}
}

// MirrorOver is an in×out mirror over t, which it views rather than
// copies — the storage of a network's scatter layer: an arena slab, or
// the weights section of a loaded model file.
func MirrorOver(in, out int, t []float32) *Mirror {
	if len(t) != in*out {
		panic(fmt.Sprintf("kernels: MirrorOver %dx%d over %d floats", in, out, len(t)))
	}
	return &Mirror{in: in, out: out, t: t}
}

// Col returns input column i's contiguous weight slice (length out).
func (m *Mirror) Col(i int32) []float32 {
	off := int(i) * m.out
	return m.t[off : off+m.out : off+m.out]
}

// Rebuild repopulates the mirror from neuron-major rows (len(rows) = out,
// each of length in).
func (m *Mirror) Rebuild(rows [][]float32) {
	if len(rows) != m.out {
		panic(fmt.Sprintf("kernels: Rebuild with %d rows, mirror has %d", len(rows), m.out))
	}
	for j, row := range rows {
		if len(row) < m.in {
			panic(fmt.Sprintf("kernels: Rebuild row %d has %d weights, mirror fan-in is %d", j, len(row), m.in))
		}
	}
	for j, row := range rows {
		for i := 0; i < m.in; i++ {
			m.t[i*m.out+j] = row[i]
		}
	}
}

// GatherForward computes dst over the active rows in the gather form: one
// fused dot+bias(+ReLU) per row. ids lists the active neuron ids aligned
// with dst; a nil ids means every neuron 0..len(dst) is active. The input
// is (inIds, inVals) sparse pairs, or inVals dense when inFull. Callers
// wanting row locality sort ids first; per-row results are bitwise
// independent of row order.
func GatherForward(dst []float32, ids []int32, w [][]float32, b []float32, inIds []int32, inVals []float32, inFull, relu bool) {
	if inFull {
		// Dense input: all rows' dots in one multi-row kernel call, then
		// bias and clamp — per row the same b + Dot(w, x) as DotBiasReLU.
		if ids != nil {
			dst = dst[:len(ids)]
		}
		vecmath.DotRows(dst, w, ids, inVals)
		for a := range dst {
			j := a
			if ids != nil {
				j = int(ids[a])
			}
			s := b[j] + dst[a]
			if relu && s < 0 {
				s = 0
			}
			dst[a] = s
		}
		return
	}
	if ids == nil {
		for j := range dst {
			dst[j] = rowDotSparse(b[j], w[j], inIds, inVals, relu)
		}
		return
	}
	for a, j := range ids {
		dst[a] = rowDotSparse(b[j], w[j], inIds, inVals, relu)
	}
}

func rowDotSparse(b float32, w []float32, inIds []int32, inVals []float32, relu bool) float32 {
	if relu {
		return vecmath.SparseDotBiasReLU(b, inIds, inVals, w)
	}
	return b + vecmath.SparseDot(inIds, inVals, w)
}

// scatterRun is how many input nonzeros ScatterForward sums per AxpyRows
// call: its column table and terms live on the stack, 2 KB at 64, and
// longer inputs are fed in runs.
const scatterRun = 64

// ScatterForward computes the full dense output in the input-major form:
// dst starts as the bias vector and adds x_i·col_i for each input nonzero
// i in input order — one AxpyRows row sum per run of scatterRun nonzeros,
// dst held in registers while the columns stream through — then the ReLU
// clamp runs over the still cache-hot result. dst must have length m.out.
// It allocates nothing: serving runs it on every request. Accumulation
// order is input-major, so results agree with the gather form only to
// float rounding (the equivalence tests bound the difference, not the
// bits).
func ScatterForward(dst []float32, m *Mirror, b []float32, inIds []int32, inVals []float32, relu bool) {
	copy(dst, b[:len(dst)])
	var cols [scatterRun][]float32
	var terms [scatterRun]vecmath.Term
	for len(inIds) > 0 {
		n := min(len(inIds), scatterRun)
		for t, i := range inIds[:n] {
			cols[t] = m.Col(i)
			terms[t] = vecmath.Term{K: int32(t), Coef: inVals[t]}
		}
		vecmath.AxpyRows(dst, cols[:n], terms[:n])
		inIds, inVals = inIds[n:], inVals[n:]
	}
	if relu {
		vecmath.ReLU(dst)
	}
}
