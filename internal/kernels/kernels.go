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
// The crossover is driven by the measured input density of the pass:
// above Config.ScatterMaxDensity the input is dense enough that the
// row-major gather (a plain GEMV) wins again, because the scatter's
// read-modify-write workspace traffic stops being paid back by better
// weight locality. The scatter form requires the layer to maintain a
// column-major Mirror of its weights; layers without one always gather.
//
// This is the vectorization/memory-layout work the follow-up paper
// "Accelerating SLIDE Deep Learning on Modern CPUs" (Daghaghi et al.,
// MLSys 2021) reports as worth 2-7x on exactly these loops, done as a
// refactor in the BrainSlug style: the network's control flow is
// unchanged, only the per-step kernel shape is re-planned. It is also the
// substrate alternative weight formats (quantized, BF16) plug into: a
// format supplies its own Mirror/row kernels and the plan logic is reused.
package kernels

import (
	"fmt"

	"repro/internal/arena"
	"repro/internal/vecmath"
)

// Form identifies one compute formulation of the forward step.
type Form uint8

const (
	// FormAuto lets the plan pick per pass from the measured density.
	FormAuto Form = iota
	// FormLegacy is the pre-engine per-neuron reference path (kept alive
	// the same way applyAdamFused backs the optimizer equivalence tests).
	FormLegacy
	// FormGather is the per-active-row fused dot form.
	FormGather
	// FormScatter is the input-major column-axpy form.
	FormScatter
	// NumForms bounds Form values, for counters indexed by form.
	NumForms
)

// String returns the reporting name of the form.
func (f Form) String() string {
	switch f {
	case FormAuto:
		return "auto"
	case FormLegacy:
		return "legacy"
	case FormGather:
		return "gather"
	case FormScatter:
		return "scatter"
	default:
		return fmt.Sprintf("Form(%d)", uint8(f))
	}
}

// DefaultScatterMaxDensity is the gather/scatter crossover: input
// densities at or above it run the gather form even when a mirror is
// available. At density 1 both forms stream the whole weight matrix, but
// the gather's row dots are pure reads while the scatter re-reads and
// re-writes the workspace once per input nonzero; the scatter's locality
// advantage has to be large enough to pay for that, which empirically
// holds only while most columns are skipped.
const DefaultScatterMaxDensity = 0.25

// Config fixes a network's kernel-planning policy. The zero value is the
// adaptive default.
type Config struct {
	// Force pins every pass to one form: FormLegacy for the reference
	// path, FormGather/FormScatter for equivalence tests and benchmarks
	// (a forced scatter still falls back to gather where no mirror
	// exists — the form would be incomputable). FormAuto adapts per pass.
	Force Form
	// ScatterMaxDensity overrides the gather/scatter density crossover;
	// 0 selects DefaultScatterMaxDensity.
	ScatterMaxDensity float64
}

// WithDefaults resolves zero fields.
func (c Config) WithDefaults() Config {
	if c.ScatterMaxDensity == 0 {
		c.ScatterMaxDensity = DefaultScatterMaxDensity
	}
	return c
}

// ForwardForm plans one forward pass over a layer: nnz input nonzeros of
// a fan-in of in (inFull marks a dense input, where nnz is ignored), with
// hasMirror reporting whether the layer maintains the column-major mirror
// the scatter form needs. The scatter form additionally requires the full
// output to be computed — callers only pass hasMirror=true for layers
// whose every neuron is active (dense layers).
func (c Config) ForwardForm(nnz, in int, inFull, hasMirror bool) Form {
	switch c.Force {
	case FormLegacy:
		return FormLegacy
	case FormGather:
		return FormGather
	case FormScatter:
		if hasMirror && !inFull {
			return FormScatter
		}
		return FormGather
	}
	if !hasMirror || inFull || in == 0 {
		return FormGather
	}
	maxD := c.ScatterMaxDensity
	if maxD == 0 {
		maxD = DefaultScatterMaxDensity
	}
	if float64(nnz) >= maxD*float64(in) {
		return FormGather
	}
	return FormScatter
}

// Fused reports whether the backward pass should use the fused
// outer-product kernels (every form except the legacy reference).
func (c Config) Fused() bool { return c.Force != FormLegacy }

// MirrorFormat selects the numeric storage of a weight mirror. FP32 is
// the exact default; BF16 halves the bytes the scatter form streams at
// ~3 decimal digits of precision; int8 quarters them behind a per-column
// scale (the stretch format — saturating near the scale boundary, so
// suited to inference and tolerance-tested training, not bit-exactness).
type MirrorFormat uint8

const (
	// MirrorFP32 stores exact float32 columns (bit-identical to the
	// row-major weights).
	MirrorFP32 MirrorFormat = iota
	// MirrorBF16 stores bfloat16 columns (round-to-nearest-even on every
	// write; relative error ≤ 2⁻⁸ per weight).
	MirrorBF16
	// MirrorInt8 stores int8 columns with one dequantization scale per
	// column, fixed at Rebuild with 2x headroom; writes beyond the
	// representable range saturate.
	MirrorInt8
)

// String returns the configuration name of the format.
func (f MirrorFormat) String() string {
	switch f {
	case MirrorFP32:
		return "fp32"
	case MirrorBF16:
		return "bf16"
	case MirrorInt8:
		return "int8"
	default:
		return fmt.Sprintf("MirrorFormat(%d)", uint8(f))
	}
}

// int8Headroom is the slack Rebuild leaves between a column's current
// max |w| and the saturation point, so training drift keeps resolving
// until the next Rebuild.
const int8Headroom = 2.0

// Mirror is a column-major copy of a layer's weight matrix: Col(i) is the
// contiguous slice of every neuron's weight for input i — the operand the
// scatter form Axpys per input nonzero. It is derived state: the layer
// rebuilds it after bulk weight restores and dual-writes it on every
// optimizer step (each Adam step touches exactly the delta's cells, so
// the mirror update costs one extra store per stepped cell). Concurrent
// readers during training inherit the row-major weights' HOGWILD
// weak-consistency argument unchanged. Quantized formats store the same
// layout in narrower cells and supply their own column kernels to
// ScatterForward.
type Mirror struct {
	in, out int
	format  MirrorFormat
	t       []float32 // fp32:  t[i*out+j] = w[j][i]
	t16     []uint16  // bf16:  same layout, bfloat16 cells
	t8      []int8    // int8:  same layout, quantized cells
	scale   []float32 // int8: per-column dequantization scale
	inv     []float32 // int8: per-column 1/scale for writes
}

// NewMirror allocates an unfilled exact (fp32) in×out mirror; call
// Rebuild to populate it.
func NewMirror(in, out int) *Mirror {
	return NewMirrorFormat(in, out, MirrorFP32, nil)
}

// NewArenaMirror is NewMirror with the backing slab carved from ar, cache
// line aligned — the form a network's mirrored layers use.
func NewArenaMirror(in, out int, ar *arena.Arena) *Mirror {
	return NewMirrorFormat(in, out, MirrorFP32, ar)
}

// NewMirrorFormat allocates an unfilled in×out mirror in the given
// format. When ar is non-nil the backing slab comes from it as one
// cache-line-aligned arena allocation; otherwise from the heap.
func NewMirrorFormat(in, out int, format MirrorFormat, ar *arena.Arena) *Mirror {
	m := &Mirror{in: in, out: out, format: format}
	n := in * out
	switch format {
	case MirrorFP32:
		if ar != nil {
			m.t = ar.AllocAligned(n)
		} else {
			m.t = make([]float32, n)
		}
	case MirrorBF16:
		if ar != nil {
			m.t16 = ar.AllocUint16(n)
		} else {
			m.t16 = make([]uint16, n)
		}
	case MirrorInt8:
		if ar != nil {
			m.t8 = ar.AllocInt8(n)
			m.scale = ar.AllocAligned(in)
			m.inv = ar.AllocAligned(in)
		} else {
			m.t8 = make([]int8, n)
			m.scale = make([]float32, in)
			m.inv = make([]float32, in)
		}
	default:
		panic(fmt.Sprintf("kernels: unknown mirror format %v", format))
	}
	return m
}

// Format returns the mirror's storage format.
func (m *Mirror) Format() MirrorFormat { return m.format }

// Col returns input column i's contiguous weight slice (length out). Only
// valid on fp32 mirrors; quantized formats are read through their own
// kernels (ScatterForward) or cell-wise through At.
func (m *Mirror) Col(i int32) []float32 {
	off := int(i) * m.out
	return m.t[off : off+m.out : off+m.out]
}

// Set stores neuron j's weight for input i, encoding per the format.
func (m *Mirror) Set(j, i int32, v float32) {
	switch m.format {
	case MirrorFP32:
		m.t[int(i)*m.out+int(j)] = v
	case MirrorBF16:
		m.t16[int(i)*m.out+int(j)] = vecmath.BF16FromF32(v)
	case MirrorInt8:
		m.t8[int(i)*m.out+int(j)] = m.quantInt8(int(i), v)
	}
}

// SetRow is Set over the cells of neuron j's row that an optimizer step
// just wrote, with the format switch outside the cell loop: cell k of the
// gradient g names input cols[k] (input k when cols is nil), a cell whose
// g[k] is exactly zero under skipZero was not stepped (optim.StepCells'
// selection) and is not stored, and w is the row's new weights.
func (m *Mirror) SetRow(j int32, cols []int32, g, w []float32, skipZero bool) {
	col := func(k int) int {
		if cols != nil {
			return int(cols[k])
		}
		return k
	}
	switch m.format {
	case MirrorFP32:
		for k, gk := range g {
			if gk == 0 && skipZero {
				continue
			}
			i := col(k)
			m.t[i*m.out+int(j)] = w[i]
		}
	case MirrorBF16:
		for k, gk := range g {
			if gk == 0 && skipZero {
				continue
			}
			i := col(k)
			m.t16[i*m.out+int(j)] = vecmath.BF16FromF32(w[i])
		}
	case MirrorInt8:
		for k, gk := range g {
			if gk == 0 && skipZero {
				continue
			}
			i := col(k)
			m.t8[i*m.out+int(j)] = m.quantInt8(i, w[i])
		}
	}
}

// quantInt8 encodes v for input column i: scaled, saturated, rounded half
// away from zero.
func (m *Mirror) quantInt8(i int, v float32) int8 {
	q := v * m.inv[i]
	switch {
	case q > 127:
		q = 127
	case q < -127:
		q = -127
	}
	return int8(roundHalfAway(q))
}

// At decodes neuron j's stored weight for input i — the format-agnostic
// read the coherence tests use.
func (m *Mirror) At(j, i int32) float32 {
	off := int(i)*m.out + int(j)
	switch m.format {
	case MirrorBF16:
		return vecmath.F32FromBF16(m.t16[off])
	case MirrorInt8:
		return float32(m.t8[off]) * m.scale[i]
	default:
		return m.t[off]
	}
}

func roundHalfAway(q float32) int32 {
	if q >= 0 {
		return int32(q + 0.5)
	}
	return int32(q - 0.5)
}

// Rebuild repopulates the mirror from neuron-major rows (len(rows) = out,
// each of length in). Used at initialization and after bulk weight
// restores (model loads). Int8 mirrors re-derive each column's scale here
// from its max |w| with 2x headroom.
func (m *Mirror) Rebuild(rows [][]float32) {
	if len(rows) != m.out {
		panic(fmt.Sprintf("kernels: Rebuild with %d rows, mirror has %d", len(rows), m.out))
	}
	for j, row := range rows {
		if len(row) < m.in {
			panic(fmt.Sprintf("kernels: Rebuild row %d has %d weights, mirror fan-in is %d", j, len(row), m.in))
		}
	}
	if m.format == MirrorInt8 {
		for i := 0; i < m.in; i++ {
			var maxAbs float32
			for _, row := range rows {
				a := row[i]
				if a < 0 {
					a = -a
				}
				if a > maxAbs {
					maxAbs = a
				}
			}
			if maxAbs == 0 {
				maxAbs = 1e-8
			}
			m.scale[i] = maxAbs * int8Headroom / 127
			m.inv[i] = 1 / m.scale[i]
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
	// engine's decision record, aggregated into training results and the
	// kernels experiment.
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
	switch m.format {
	case MirrorBF16:
		for t, i := range inIds {
			off := int(i) * m.out
			vecmath.AxpyBF16(inVals[t], m.t16[off:off+m.out:off+m.out], dst)
		}
	case MirrorInt8:
		for t, i := range inIds {
			off := int(i) * m.out
			vecmath.AxpyInt8(inVals[t]*m.scale[i], m.t8[off:off+m.out:off+m.out], dst)
		}
	default:
		for t, i := range inIds {
			vecmath.Axpy(inVals[t], m.Col(i), dst)
		}
	}
	if relu {
		vecmath.ReLU(dst)
	}
}
