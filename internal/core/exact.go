package core

import (
	"context"

	"repro/internal/kernels"
	"repro/internal/sparse"
	"repro/internal/vecmath"
)

// Batch-major exact inference. An exact pass reads every output-layer row
// — 10.5 MB at 20.5K classes of 128 floats — for a few dozen cycles of
// arithmetic per row, so one element at a time it waits on memory. The
// pass below runs a sub-batch of elements through the layers under the
// output one element at a time, as forward does, keeps each element's
// last hidden vector, and then walks the output layer once in blocks of
// exactBlockBytes: every element scores a block while its rows sit in L2,
// before the walk moves on. Each (row, element) score is the same fused
// dot+bias kernel call on the same row and input as the per-element
// pass, so the scores are bit for bit the per-element ones.

const (
	// exactBlockBytes sizes an output-layer row block to stay in L2 while
	// the sub-batch scores it: 256 rows of a 128-wide layer.
	exactBlockBytes = 128 << 10
	// exactScratchBytes caps a sub-batch's scratch — one output-wide score
	// row and one hidden vector per element — so a pooled worker state
	// holds at most this much for the pass whatever the group size: 25
	// elements at 20.5K classes of a 128-wide layer, 3 at 134K.
	exactScratchBytes = 2 << 20
)

// batchMajor reports whether exact passes run batch-major: always, except
// on a one-layer network whose output layer is input-major, which scatters
// one row per input feature and has no output-row walk to share.
func (n *Network) batchMajor() bool { return !n.layers[len(n.layers)-1].inputMajor }

// exactBatchCap is the largest sub-batch whose scratch fits
// exactScratchBytes, and at least 1.
func (n *Network) exactBatchCap() int {
	l := n.layers[len(n.layers)-1]
	per := l.out
	if len(n.layers) > 1 {
		per += l.in
	}
	return max(1, exactScratchBytes/(4*per))
}

// exactEach runs the exact pass over xs on st, in order, and hands visit
// each element's index and output-layer activations, which are valid
// until visit returns. Batch-major, it takes exactBatchCap elements at a
// time and checks ctx before each sub-batch; otherwise before each
// element. It returns ctx.Err() once ctx is done, having visited the
// elements before.
func (n *Network) exactEach(ctx context.Context, st *elemState, xs []sparse.Vector, visit func(i int, scores []float32)) error {
	if !n.batchMajor() {
		for i, x := range xs {
			if err := ctx.Err(); err != nil {
				return err
			}
			n.forwardElem(st, x, nil, modeEvalFull)
			visit(i, st.layers[len(st.layers)-1].vals)
		}
		return nil
	}
	step, out := n.exactBatchCap(), n.OutputDim()
	for lo := 0; lo < len(xs); lo += step {
		if err := ctx.Err(); err != nil {
			return err
		}
		hi := min(lo+step, len(xs))
		scores := n.exactScores(st, xs[lo:hi], step)
		for i := lo; i < hi; i++ {
			visit(i, scores[(i-lo)*out:(i-lo+1)*out])
		}
	}
	return nil
}

// exactScores runs one sub-batch of at most batchCap elements batch-major
// and returns their output-layer activations, element i's at
// [i·OutputDim, (i+1)·OutputDim) of the state's score scratch.
func (n *Network) exactScores(st *elemState, xs []sparse.Vector, batchCap int) []float32 {
	last := len(n.layers) - 1
	l := n.layers[last]
	scores := st.growExact(len(xs), batchCap, l.out, last > 0, l.in)
	if last > 0 {
		for i, x := range xs {
			n.forward(st, st.layers[:last], x, nil, modeEvalFull)
			copy(st.exactHidden[i*l.in:(i+1)*l.in], st.layers[last-1].vals)
		}
	} else {
		st.passes += int64(len(xs))
	}
	relu := l.cfg.Activation == ActReLU
	rows := max(1, exactBlockBytes/(4*l.in))
	for r0 := 0; r0 < l.out; r0 += rows {
		r1 := min(r0+rows, l.out)
		w, b := l.w[r0:r1], l.b[r0:r1]
		for i, x := range xs {
			dst := scores[i*l.out+r0 : i*l.out+r1]
			if last > 0 {
				kernels.GatherForward(dst, nil, w, b, nil, st.exactHidden[i*l.in:(i+1)*l.in], true, relu)
			} else {
				kernels.GatherForward(dst, nil, w, b, x.Idx, x.Val, false, relu)
			}
		}
	}
	if l.cfg.Activation == ActSoftmax {
		for i := range xs {
			vecmath.Softmax(scores[i*l.out : (i+1)*l.out])
		}
	}
	return scores
}

// growExact sizes the state's exact-pass scratch for b elements of out
// scores (and, with hidden, in-wide hidden vectors) and returns the b
// score rows. Capacity doubles up to batchCap elements, so a state that
// keeps serving grows a few times and then allocates nothing.
func (st *elemState) growExact(b, batchCap, out int, hidden bool, in int) []float32 {
	if len(st.exactScores) < b*out {
		rows := min(max(b, 2*len(st.exactScores)/out), batchCap)
		st.exactScores = make([]float32, rows*out)
		if hidden {
			st.exactHidden = make([]float32, rows*in)
		}
	}
	return st.exactScores[:b*out]
}
