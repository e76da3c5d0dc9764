// Package kernels is the density-adaptive execution layer between the
// SLIDE network (internal/core) and the raw vector kernels
// (internal/vecmath). For every (layer, active set) forward step it picks
// a compute *form*:
//
//   - gather: the classical per-active-neuron formulation — one fused
//     dot+bias(+ReLU) per active row, rows visited in ascending id order
//     for locality. The right shape when the active output fraction is
//     small (SLIDE's sampled layers) or the input is dense.
//   - scatter: the input-major formulation — for each input nonzero, one
//     contiguous Axpy of its column-major weight slice into the dense
//     output workspace. The right shape when every output neuron is
//     active and the input is sparse (the paper architecture's first
//     hidden layer, whose input is the example's sparse feature vector):
//     a gather there issues out×nnz scattered single-float reads, while
//     the scatter streams nnz contiguous out-length slices.
//
// The crossover is driven by the measured input density of the pass: at
// and above the machine's crossover (CalibratedCrossover) the input is
// dense enough that the row-major gather (a plain GEMV) wins again,
// because the scatter's read-modify-write workspace traffic stops being
// paid back by better weight locality. The scatter form requires the
// layer to maintain a column-major Mirror of its weights; layers without
// one always gather.
//
// This is the vectorization/memory-layout work the follow-up paper
// "Accelerating SLIDE Deep Learning on Modern CPUs" (Daghaghi et al.,
// MLSys 2021) reports as worth 2-7x on exactly these loops, done as a
// refactor in the BrainSlug style: the network's control flow is
// unchanged, only the per-step kernel shape is re-planned.
package kernels

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/vecmath"
)

// Form identifies one compute formulation of the forward step.
type Form uint8

const (
	// FormGather is the per-active-row fused dot form.
	FormGather Form = iota
	// FormScatter is the input-major column-axpy form.
	FormScatter
	// NumForms bounds Form values, for counters indexed by form.
	NumForms
)

// String returns the reporting name of the form.
func (f Form) String() string {
	switch f {
	case FormGather:
		return "gather"
	case FormScatter:
		return "scatter"
	default:
		return fmt.Sprintf("Form(%d)", uint8(f))
	}
}

// ForwardForm plans one forward pass over a layer: nnz input nonzeros of
// a fan-in of in (inFull marks a dense input, where nnz is ignored), with
// hasMirror reporting whether the layer maintains the column-major mirror
// the scatter form needs, and crossover the input density at and above
// which the gather form wins (a network passes CalibratedCrossover). The
// scatter form additionally requires the full output to be computed —
// callers only pass hasMirror=true for layers whose every neuron is
// active (dense layers). A crossover of 0 always gathers; one above 1
// scatters wherever a mirror exists and the input is sparse.
func ForwardForm(nnz, in int, inFull, hasMirror bool, crossover float64) Form {
	if !hasMirror || inFull || float64(nnz) >= crossover*float64(in) {
		return FormGather
	}
	return FormScatter
}

// Mirror is a column-major copy of a layer's weight matrix: Col(i) is the
// contiguous slice of every neuron's weight for input i — the operand the
// scatter form Axpys per input nonzero. It is derived state: the layer
// rebuilds it after bulk weight restores and dual-writes it on every
// optimizer step (each Adam step touches exactly the delta's cells, so
// the mirror update costs one extra store per stepped cell). Concurrent
// readers during training inherit the row-major weights' HOGWILD
// weak-consistency argument unchanged.
type Mirror struct {
	in, out int
	t       []float32 // t[i*out+j] = w[j][i]
}

// NewMirror allocates an unfilled in×out mirror on the heap; call Rebuild
// to populate it.
func NewMirror(in, out int) *Mirror {
	return &Mirror{in: in, out: out, t: make([]float32, in*out)}
}

// NewArenaMirror is NewMirror with the backing slab carved from ar, cache
// line aligned — the form a network's mirrored layers use.
func NewArenaMirror(in, out int, ar *arena.Arena) *Mirror {
	return &Mirror{in: in, out: out, t: ar.AllocAligned(in * out)}
}

// Col returns input column i's contiguous weight slice (length out).
func (m *Mirror) Col(i int32) []float32 {
	off := int(i) * m.out
	return m.t[off : off+m.out : off+m.out]
}

// Set stores neuron j's weight for input i.
func (m *Mirror) Set(j, i int32, v float32) {
	m.t[int(i)*m.out+int(j)] = v
}

// SetRow is Set over the cells of neuron j's row that an optimizer step
// just wrote: cell k of the gradient g names input cols[k] (input k when
// cols is nil), a cell whose g[k] is exactly zero under skipZero was not
// stepped (optim.StepCells' selection) and is not stored, and w is the
// row's new weights.
func (m *Mirror) SetRow(j int32, cols []int32, g, w []float32, skipZero bool) {
	for k, gk := range g {
		if gk == 0 && skipZero {
			continue
		}
		i := k
		if cols != nil {
			i = int(cols[k])
		}
		m.t[i*m.out+int(j)] = w[i]
	}
}

// At reads neuron j's stored weight for input i.
func (m *Mirror) At(j, i int32) float32 {
	return m.t[int(i)*m.out+int(j)]
}

// Rebuild repopulates the mirror from neuron-major rows (len(rows) = out,
// each of length in). Used at initialization and after bulk weight
// restores (model loads).
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
			m.Set(int32(j), int32(i), row[i])
		}
	}
}

// Workspace is one worker's reusable kernel scratch, embedded in the
// per-worker element state so steady-state passes allocate nothing.
type Workspace struct {
	// Acc is the backward activation-gradient accumulator, sized once to
	// the network's largest fan-in.
	Acc []float32
	// Forms counts forward kernel executions by chosen form — the
	// engine's decision record, aggregated into training results.
	Forms [NumForms]int64
}

// EnsureAcc returns the accumulator resized to n, growing the backing
// array only when the recorded fan-in bound was too small.
func (w *Workspace) EnsureAcc(n int) []float32 {
	if cap(w.Acc) < n {
		w.Acc = make([]float32, n)
	}
	w.Acc = w.Acc[:n]
	return w.Acc
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
