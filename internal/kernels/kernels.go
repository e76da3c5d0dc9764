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
//   - scatter: the input-major formulation — for each input nonzero, one
//     contiguous Axpy of that input's out-wide weight slice into the dense
//     output workspace. The first layer runs it when it is not sampled:
//     every neuron is active and the input is the example's sparse feature
//     vector, so a gather would issue out×nnz scattered single-float reads
//     where the scatter streams nnz contiguous out-length slices. That
//     layer stores its weights input-major (a Mirror over the network
//     arena), and no other copy exists.
//
// This is the vectorization/memory-layout work the follow-up paper
// "Accelerating SLIDE Deep Learning on Modern CPUs" (Daghaghi et al.,
// MLSys 2021) reports as worth 2-7x on exactly these loops: weights stored
// in the order the kernel streams them.
package kernels

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/vecmath"
)

// Mirror is an input-major weight matrix: Col(i) is the contiguous slice
// of every neuron's weight for input i — the operand the scatter form
// Axpys per input nonzero. A network's scatter layer keeps its weights in
// one (NewArenaMirror); NewMirror and Rebuild build one from neuron-major
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

// NewArenaMirror is NewMirror with the backing slab carved from ar, cache
// line aligned — the storage of a network's scatter layer.
func NewArenaMirror(in, out int, ar *arena.Arena) *Mirror {
	return &Mirror{in: in, out: out, t: ar.AllocAligned(in * out)}
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

// ScatterForward computes the full dense output in the input-major form:
// dst starts as the bias vector and accumulates one contiguous
// column-Axpy per input nonzero, then the ReLU clamp runs over the still
// cache-hot result. dst must have length m.out. Accumulation order is
// input-major, so results agree with the gather form only to float
// rounding (the equivalence tests bound the difference, not the bits).
func ScatterForward(dst []float32, m *Mirror, b []float32, inIds []int32, inVals []float32, relu bool) {
	copy(dst, b[:len(dst)])
	for t, i := range inIds {
		vecmath.Axpy(inVals[t], m.Col(i), dst)
	}
	if relu {
		vecmath.ReLU(dst)
	}
}
